//! Input core: event devices (mice, keyboards).

use std::collections::HashMap;

use crate::error::{KError, KResult};
use crate::kernel::Kernel;

/// An input event (type, code, value) as in `input_event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputEvent {
    /// Event type (`EV_REL`, `EV_KEY`, ...).
    pub ev_type: u16,
    /// Event code (`REL_X`, `BTN_LEFT`, ...).
    pub code: u16,
    /// Event value (movement delta, key state).
    pub value: i32,
}

/// Relative-motion event type (`EV_REL`).
pub const EV_REL: u16 = 0x02;
/// Key/button event type (`EV_KEY`).
pub const EV_KEY: u16 = 0x01;
/// X-axis relative movement code.
pub const REL_X: u16 = 0x00;
/// Y-axis relative movement code.
pub const REL_Y: u16 = 0x01;
/// Left mouse button code.
pub const BTN_LEFT: u16 = 0x110;

#[derive(Default)]
struct InputDev {
    events: u64,
}

/// Input-subsystem state stored inside the kernel.
#[derive(Default)]
pub struct InputState {
    devices: HashMap<String, InputDev>,
}

impl Kernel {
    /// Registers an input device (like `input_register_device`).
    pub fn input_register_device(&self, name: impl Into<String>) -> KResult<()> {
        let name = name.into();
        let mut input = self.inner().input.borrow_mut();
        if input.devices.contains_key(&name) {
            return Err(KError::Busy);
        }
        input.devices.insert(name, InputDev::default());
        Ok(())
    }

    /// Unregisters an input device.
    pub fn input_unregister_device(&self, name: &str) {
        self.inner().input.borrow_mut().devices.remove(name);
    }

    /// Reports an event from a driver (like `input_report_rel` etc.).
    /// The kernel counts it and keeps none.
    pub fn input_report(&self, name: &str, _event: InputEvent) -> KResult<()> {
        let mut input = self.inner().input.borrow_mut();
        let d = input.devices.get_mut(name).ok_or(KError::NoDev)?;
        d.events += 1;
        Ok(())
    }

    /// Number of events reported by `name`.
    pub fn input_event_count(&self, name: &str) -> u64 {
        self.inner()
            .input
            .borrow()
            .devices
            .get(name)
            .map_or(0, |d| d.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_counted_per_device() {
        let k = Kernel::new();
        k.input_register_device("psmouse").unwrap();
        k.input_report(
            "psmouse",
            InputEvent {
                ev_type: EV_REL,
                code: REL_X,
                value: 3,
            },
        )
        .unwrap();
        k.input_report(
            "psmouse",
            InputEvent {
                ev_type: EV_KEY,
                code: BTN_LEFT,
                value: 1,
            },
        )
        .unwrap();
        assert_eq!(k.input_event_count("psmouse"), 2);
        assert_eq!(k.input_event_count("other"), 0);
    }

    #[test]
    fn unknown_device_is_nodev() {
        let k = Kernel::new();
        assert_eq!(
            k.input_report(
                "nope",
                InputEvent {
                    ev_type: 0,
                    code: 0,
                    value: 0
                }
            ),
            Err(KError::NoDev)
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let k = Kernel::new();
        k.input_register_device("m").unwrap();
        assert_eq!(k.input_register_device("m"), Err(KError::Busy));
        k.input_unregister_device("m");
        assert!(k.input_register_device("m").is_ok());
    }
}
