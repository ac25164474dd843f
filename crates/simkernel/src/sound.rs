//! Sound core with configurable locking.
//!
//! "We modified the kernel sound libraries to use mutexes, which allowed
//! more code to execute in user mode. In its original implementation, the
//! sound library would often acquire a spinlock before calling the driver"
//! (paper §3.1.3). The core here supports both modes so the repository can
//! demonstrate *why* that change was required: in spinlock mode any driver
//! callback that needs to block (i.e. any XPC to the decaf driver) records
//! a `BlockingInAtomic` violation.

use std::collections::HashMap;
use std::rc::Rc;

use crate::error::{KError, KResult};
use crate::kernel::Kernel;
use crate::sync::{KMutex, SpinLock};

/// Which lock the sound core takes around driver callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoundLockMode {
    /// The original kernel behaviour: spinlock held across driver calls.
    Spinlock,
    /// The paper's modified kernel: mutex held across driver calls.
    Mutex,
}

/// A fallible stream-control callback.
pub type StreamOp = Rc<dyn Fn(&Kernel) -> KResult<()>>;
/// The PCM write callback: frames in, frames accepted out.
pub type PcmWriteOp = Rc<dyn Fn(&Kernel, &[i16]) -> KResult<usize>>;

/// Driver callbacks for a sound card.
#[derive(Clone)]
pub struct SoundCardOps {
    /// Opens the PCM playback stream.
    pub open: StreamOp,
    /// Writes interleaved 16-bit frames; returns frames accepted.
    pub write: PcmWriteOp,
    /// Closes the PCM playback stream.
    pub close: StreamOp,
}

struct SoundCard {
    ops: SoundCardOps,
    mode: SoundLockMode,
    spin: Rc<SpinLock>,
    mutex: Rc<KMutex>,
    open: bool,
}

/// Sound-subsystem state stored inside the kernel.
#[derive(Default)]
pub struct SoundState {
    cards: HashMap<String, SoundCard>,
}

impl Kernel {
    /// Registers a sound card (like `snd_card_register`); the core defaults
    /// to the paper's mutex locking.
    pub fn snd_card_register(&self, name: impl Into<String>, ops: SoundCardOps) -> KResult<()> {
        let name = name.into();
        let mut sound = self.inner().sound.borrow_mut();
        if sound.cards.contains_key(&name) {
            return Err(KError::Busy);
        }
        let spin = Rc::new(SpinLock::new(format!("{name}.pcm_spin")));
        let mutex = Rc::new(KMutex::new(format!("{name}.pcm_mutex")));
        sound.cards.insert(
            name,
            SoundCard {
                ops,
                mode: SoundLockMode::Mutex,
                spin,
                mutex,
                open: false,
            },
        );
        Ok(())
    }

    /// Unregisters a sound card (like `snd_card_free`): its ops go, and
    /// the name may register again.
    pub fn snd_card_unregister(&self, name: &str) {
        // Dropped once the borrow is released: the ops may own a driver.
        let card = self.inner().sound.borrow_mut().cards.remove(name);
        drop(card);
    }

    /// Selects the lock the core takes around this card's callbacks.
    pub fn snd_set_lock_mode(&self, name: &str, mode: SoundLockMode) -> KResult<()> {
        match self.inner().sound.borrow_mut().cards.get_mut(name) {
            Some(c) => {
                c.mode = mode;
                Ok(())
            }
            None => Err(KError::NoDev),
        }
    }

    #[allow(clippy::type_complexity)]
    fn snd_card(
        &self,
        name: &str,
    ) -> KResult<(SoundCardOps, SoundLockMode, Rc<SpinLock>, Rc<KMutex>)> {
        let sound = self.inner().sound.borrow();
        let c = sound.cards.get(name).ok_or(KError::NoDev)?;
        Ok((
            c.ops.clone(),
            c.mode,
            Rc::clone(&c.spin),
            Rc::clone(&c.mutex),
        ))
    }

    fn snd_locked<R>(&self, name: &str, f: impl FnOnce(&SoundCardOps) -> R) -> KResult<R> {
        let (ops, mode, spin, mutex) = self.snd_card(name)?;
        Ok(match mode {
            SoundLockMode::Spinlock => {
                let _g = spin.lock(self);
                f(&ops)
            }
            SoundLockMode::Mutex => {
                let _g = mutex.lock(self);
                f(&ops)
            }
        })
    }

    /// Opens the playback stream (like `snd_pcm_open`).
    pub fn snd_pcm_open(&self, name: &str) -> KResult<()> {
        self.snd_locked(name, |ops| (ops.open)(self))??;
        if let Some(c) = self.inner().sound.borrow_mut().cards.get_mut(name) {
            c.open = true;
        }
        Ok(())
    }

    /// Writes playback frames; returns frames accepted.
    pub fn snd_pcm_write(&self, name: &str, frames: &[i16]) -> KResult<usize> {
        let open = self
            .inner()
            .sound
            .borrow()
            .cards
            .get(name)
            .is_some_and(|c| c.open);
        if !open {
            return Err(KError::Inval);
        }
        self.snd_locked(name, |ops| (ops.write)(self, frames))?
    }

    /// Closes the playback stream.
    pub fn snd_pcm_close(&self, name: &str) -> KResult<()> {
        self.snd_locked(name, |ops| (ops.close)(self))??;
        if let Some(c) = self.inner().sound.borrow_mut().cards.get_mut(name) {
            c.open = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ViolationKind;
    use std::cell::Cell;

    fn ops(written: Rc<Cell<usize>>, blocking_driver: bool) -> SoundCardOps {
        SoundCardOps {
            open: Rc::new(|_| Ok(())),
            write: Rc::new(move |k, frames| {
                if blocking_driver {
                    // A decaf driver would block here (XPC to user mode).
                    k.assert_may_block("xpc to decaf driver");
                }
                written.set(written.get() + frames.len());
                Ok(frames.len())
            }),
            close: Rc::new(|_| Ok(())),
        }
    }

    #[test]
    fn open_write_close_under_mutex_mode() {
        let k = Kernel::new();
        let w = Rc::new(Cell::new(0));
        k.snd_card_register("ens1371", ops(Rc::clone(&w), true))
            .unwrap();
        k.snd_pcm_open("ens1371").unwrap();
        assert_eq!(k.snd_pcm_write("ens1371", &[0i16; 128]).unwrap(), 128);
        k.snd_pcm_close("ens1371").unwrap();
        assert_eq!(w.get(), 128);
        assert!(
            k.violations().is_empty(),
            "mutex mode lets the driver block: {:?}",
            k.violations()
        );
    }

    #[test]
    fn spinlock_mode_flags_blocking_drivers() {
        // Reproduces why the paper modified the sound libraries: with the
        // original spinlock, a driver callback that blocks is a bug.
        let k = Kernel::new();
        let w = Rc::new(Cell::new(0));
        k.snd_card_register("ens1371", ops(Rc::clone(&w), true))
            .unwrap();
        k.snd_set_lock_mode("ens1371", SoundLockMode::Spinlock)
            .unwrap();
        k.snd_pcm_open("ens1371").unwrap();
        k.clear_violations();
        let _ = k.snd_pcm_write("ens1371", &[0i16; 16]);
        assert!(k
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::BlockingInAtomic));
    }

    #[test]
    fn write_requires_open() {
        let k = Kernel::new();
        let w = Rc::new(Cell::new(0));
        k.snd_card_register("c", ops(w, false)).unwrap();
        assert_eq!(k.snd_pcm_write("c", &[0i16; 4]), Err(KError::Inval));
    }

    #[test]
    fn an_unregistered_card_is_gone_and_its_name_free() {
        let k = Kernel::new();
        let w = Rc::new(Cell::new(0));
        k.snd_card_register("c", ops(Rc::clone(&w), false)).unwrap();
        k.snd_card_unregister("c");
        assert_eq!(k.snd_pcm_open("c"), Err(KError::NoDev));
        assert_eq!(Rc::strong_count(&w), 1, "the card's ops were dropped");
        k.snd_card_register("c", ops(w, false)).unwrap();
        k.snd_pcm_open("c").unwrap();
    }

    #[test]
    fn missing_card_is_nodev() {
        let k = Kernel::new();
        assert_eq!(k.snd_pcm_open("nope"), Err(KError::NoDev));
    }
}
