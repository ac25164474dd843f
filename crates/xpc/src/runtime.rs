//! Runtime support shared by all decaf drivers.
//!
//! "Decaf Drivers provides runtime support common to all decaf drivers.
//! The runtime for user-level code, the decaf runtime, contains code
//! supporting all decaf drivers. The kernel runtime is a separate kernel
//! module, called the nuclear runtime, that is linked to every driver
//! nucleus" (paper §3).

use std::cell::Cell;
use std::rc::Rc;

use decaf_simkernel::Kernel;
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;

use crate::domain::Domain;
use crate::endpoint::{ProcHandle, XpcChannel};
use crate::error::{XpcError, XpcResult};

/// The kernel-side runtime linked into every driver nucleus.
///
/// Its central job is guarding upcalls: "the nuclear runtime disables
/// interrupts from the driver's device with `disable_irq` while the decaf
/// driver runs" (§3.1.3), so the driver never interrupts itself. It also
/// counts decaf-driver invocations, the statistic §4.2 reports (e.g. the
/// ens1371 decaf driver was called 15 times during playback).
///
/// The runtime holds no [`Kernel`]: it is captured by closures the kernel
/// stores (netdev ops, watchdog work items), and a stored closure that
/// owned a kernel handle would keep the whole machine alive forever.
/// Every entry point takes the `&Kernel` its caller was handed.
pub struct NuclearRuntime {
    channel: Rc<XpcChannel>,
    device_irq: Option<u32>,
    decaf_invocations: Cell<u64>,
}

impl NuclearRuntime {
    /// Creates the runtime for one driver nucleus.
    pub fn new(channel: Rc<XpcChannel>, device_irq: Option<u32>) -> Self {
        NuclearRuntime {
            channel,
            device_irq,
            decaf_invocations: Cell::new(0),
        }
    }

    /// The channel to this driver's decaf driver.
    pub fn channel(&self) -> &Rc<XpcChannel> {
        &self.channel
    }

    /// Number of upcalls made into the decaf driver.
    pub fn decaf_invocations(&self) -> u64 {
        self.decaf_invocations.get()
    }

    /// Invokes a decaf-driver procedure with the device IRQ masked. `proc`
    /// is its handle at the decaf end — what registering it returned.
    pub fn upcall(
        &self,
        kernel: &Kernel,
        proc: ProcHandle,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<XdrValue> {
        if let Some(line) = self.device_irq {
            kernel.disable_irq(line);
        }
        self.decaf_invocations.set(self.decaf_invocations.get() + 1);
        let result = self
            .channel
            .call_resolved(kernel, Domain::Nucleus, proc, args, scalars);
        if let Some(line) = self.device_irq {
            kernel.enable_irq(line);
        }
        result
    }

    /// Invokes a decaf procedure and maps its integer return to a kernel
    /// errno-style result: negative values become errors.
    pub fn upcall_errno(
        &self,
        kernel: &Kernel,
        proc: ProcHandle,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<i32> {
        match self.upcall(kernel, proc, args, scalars)? {
            XdrValue::Int(v) => Ok(v),
            XdrValue::Void => Ok(0),
            other => Err(XpcError::Xdr(decaf_xdr::XdrError::TypeMismatch {
                expected: "int return".into(),
                found: other.kind().into(),
            })),
        }
    }
}

impl std::fmt::Debug for NuclearRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NuclearRuntime")
            .field("device_irq", &self.device_irq)
            .field("decaf_invocations", &self.decaf_invocations.get())
            .finish()
    }
}

/// The user-side runtime shared by all decaf drivers.
///
/// Provides the downcall path into the kernel and the recovery path after
/// a decaf-driver fault.
pub struct DecafRuntime {
    channel: Rc<XpcChannel>,
    restarts: Cell<u64>,
}

impl DecafRuntime {
    /// Creates the user-side runtime over a channel to the nucleus.
    pub fn new(channel: Rc<XpcChannel>) -> Self {
        DecafRuntime {
            channel,
            restarts: Cell::new(0),
        }
    }

    /// The channel to the driver nucleus.
    pub fn channel(&self) -> &Rc<XpcChannel> {
        &self.channel
    }

    /// Invokes a kernel (nucleus) procedure from the decaf driver.
    pub fn downcall(
        &self,
        kernel: &Kernel,
        proc: &str,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<XdrValue> {
        self.channel
            .call(kernel, Domain::Decaf, proc, args, scalars)
    }

    /// Restarts the decaf driver after a fault: clears its heap and
    /// tracker so the next upcall re-transfers fresh state.
    pub fn restart(&self) -> XpcResult<()> {
        self.restarts.set(self.restarts.get() + 1);
        self.channel.reset_end(Domain::Decaf)
    }

    /// Number of restarts performed.
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }
}

impl std::fmt::Debug for DecafRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecafRuntime")
            .field("restarts", &self.restarts.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{ChannelConfig, ProcDef};
    use decaf_xdr::mask::MaskSet;
    use decaf_xdr::XdrSpec;

    fn setup() -> (Kernel, Rc<XpcChannel>) {
        let kernel = Kernel::new();
        let spec = XdrSpec::parse("struct s { int x; };").unwrap();
        let ch = Rc::new(XpcChannel::new(
            spec,
            MaskSet::full(),
            ChannelConfig::kernel_user(),
            Domain::Nucleus,
            Domain::Decaf,
        ));
        (kernel, ch)
    }

    #[test]
    fn upcall_masks_device_irq_while_decaf_runs() {
        let (kernel, ch) = setup();
        let irq_line = 7;
        let fired = Rc::new(Cell::new(false));
        let f = Rc::clone(&fired);
        kernel
            .request_irq(irq_line, "dev", Rc::new(move |_| f.set(true)))
            .unwrap();

        // The decaf handler raises the device IRQ mid-execution and then
        // checks it is *not* delivered while it runs.
        let probe = ch
            .register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "probe".into(),
                    arg_types: vec![],
                    handler: Rc::new(move |k, _, _, _| {
                        k.raise_irq(7);
                        k.schedule_point();
                        assert!(k.irq_pending(7), "IRQ must stay masked during the upcall");
                        XdrValue::Int(0)
                    }),
                },
            )
            .unwrap();

        let rt = NuclearRuntime::new(Rc::clone(&ch), Some(irq_line));
        rt.upcall(&kernel, probe, &[], &[]).unwrap();
        assert!(!fired.get());
        // After the upcall returns, the pending IRQ is delivered.
        kernel.schedule_point();
        assert!(fired.get());
        assert_eq!(rt.decaf_invocations(), 1);
    }

    #[test]
    fn upcall_errno_maps_ints() {
        let (kernel, ch) = setup();
        let ret5 = ch
            .register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "ret5".into(),
                    arg_types: vec![],
                    handler: Rc::new(|_, _, _, _| XdrValue::Int(5)),
                },
            )
            .unwrap();
        let rt = NuclearRuntime::new(ch, None);
        assert_eq!(rt.upcall_errno(&kernel, ret5, &[], &[]).unwrap(), 5);
    }

    #[test]
    fn restart_clears_decaf_state() {
        let (kernel, ch) = setup();
        let boom = ch
            .register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "boom".into(),
                    arg_types: vec![],
                    handler: Rc::new(|_, _, _, _| panic!("bug")),
                },
            )
            .unwrap();
        let nuc = NuclearRuntime::new(Rc::clone(&ch), None);
        let dec = DecafRuntime::new(ch);
        let err = nuc.upcall(&kernel, boom, &[], &[]).unwrap_err();
        assert!(matches!(err, XpcError::DecafFault(_)));
        dec.restart().unwrap();
        assert_eq!(dec.restarts(), 1);
    }

    #[test]
    fn downcall_reaches_nucleus() {
        let (kernel, ch) = setup();
        ch.register_proc(
            Domain::Nucleus,
            ProcDef {
                name: "readl".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, s| XdrValue::Int(s[0].as_int().unwrap() * 2)),
            },
        )
        .unwrap();
        let rt = DecafRuntime::new(ch);
        assert_eq!(
            rt.downcall(&kernel, "readl", &[], &[XdrValue::Int(21)])
                .unwrap(),
            XdrValue::Int(42)
        );
    }
}
