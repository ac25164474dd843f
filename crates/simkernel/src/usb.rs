//! USB core: host controller registration and URB submission.

use std::rc::Rc;

use crate::error::{KError, KResult};
use crate::kernel::Kernel;

/// Transfer direction of a USB request block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrbDir {
    /// Device-to-host.
    In,
    /// Host-to-device.
    Out,
}

/// A USB request block.
#[derive(Debug, Clone)]
pub struct Urb {
    /// Endpoint number.
    pub endpoint: u8,
    /// Transfer direction.
    pub dir: UrbDir,
    /// Data to send (Out) or expected length marker (In).
    pub data: Vec<u8>,
}

/// Completion callback: receives the transfer result (data for In URBs).
pub type UrbCompletion = Rc<dyn Fn(&Kernel, KResult<Vec<u8>>)>;

/// The URB submission callback.
pub type SubmitOp = Rc<dyn Fn(&Kernel, Urb, UrbCompletion) -> KResult<()>>;

/// Host-controller-driver callbacks.
#[derive(Clone)]
pub struct HcdOps {
    /// Submits an URB; completion is invoked when the transfer finishes.
    pub submit: SubmitOp,
}

struct Hcd {
    name: String,
    ops: HcdOps,
}

/// USB-subsystem state stored inside the kernel. A machine has a host
/// controller or two, and every URB finds its own by comparing names,
/// not by hashing one.
#[derive(Default)]
pub struct UsbState {
    hcds: Vec<Hcd>,
}

impl UsbState {
    fn hcd(&self, name: &str) -> Option<&Hcd> {
        self.hcds.iter().find(|h| h.name == name)
    }
}

impl Kernel {
    /// Registers a host controller driver (like `usb_add_hcd`).
    pub fn usb_register_hcd(&self, name: impl Into<String>, ops: HcdOps) -> KResult<()> {
        let name = name.into();
        let mut usb = self.inner().usb.borrow_mut();
        if usb.hcd(&name).is_some() {
            return Err(KError::Busy);
        }
        usb.hcds.push(Hcd { name, ops });
        Ok(())
    }

    /// Unregisters a host controller.
    pub fn usb_unregister_hcd(&self, name: &str) {
        self.inner()
            .usb
            .borrow_mut()
            .hcds
            .retain(|h| h.name != name);
    }

    /// Submits an URB to a host controller (like `usb_submit_urb`).
    pub fn usb_submit_urb(&self, hcd: &str, urb: Urb, completion: UrbCompletion) -> KResult<()> {
        let ops = {
            let usb = self.inner().usb.borrow();
            usb.hcd(hcd).ok_or(KError::NoDev)?.ops.clone()
        };
        (ops.submit)(self, urb, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn submit_reaches_hcd_and_completion_fires() {
        let k = Kernel::new();
        let done = Rc::new(Cell::new(false));
        let ops = HcdOps {
            submit: Rc::new(|k, urb, completion| {
                assert_eq!(urb.dir, UrbDir::Out);
                completion(k, Ok(urb.data));
                Ok(())
            }),
        };
        k.usb_register_hcd("uhci", ops).unwrap();
        let d = Rc::clone(&done);
        k.usb_submit_urb(
            "uhci",
            Urb {
                endpoint: 2,
                dir: UrbDir::Out,
                data: vec![1, 2, 3],
            },
            Rc::new(move |_, result| {
                assert_eq!(result.unwrap().len(), 3);
                d.set(true);
            }),
        )
        .unwrap();
        assert!(done.get());
    }

    #[test]
    fn unknown_hcd_is_nodev() {
        let k = Kernel::new();
        let r = k.usb_submit_urb(
            "missing",
            Urb {
                endpoint: 0,
                dir: UrbDir::In,
                data: vec![],
            },
            Rc::new(|_, _| {}),
        );
        assert_eq!(r, Err(KError::NoDev));
    }

    #[test]
    fn duplicate_hcd_rejected() {
        let k = Kernel::new();
        let ops = HcdOps {
            submit: Rc::new(|_, _, _| Ok(())),
        };
        k.usb_register_hcd("uhci", ops.clone()).unwrap();
        assert_eq!(k.usb_register_hcd("uhci", ops), Err(KError::Busy));
    }
}
