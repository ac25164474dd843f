//! Virtual time does not know the image cache exists.
//!
//! This file holds exactly one test so that its first install is the
//! first use of the e1000 image in the process: the load that pays the
//! ~350 µs of host time to slice the source, and the loads after it that
//! do not, must be indistinguishable to everything the model measures.

use decaf_core::drivers::e1000;
use decaf_core::simkernel::Kernel;

#[test]
fn first_and_third_install_are_identical_in_virtual_time() {
    // A fresh thread, so no thread-local state of the harness thread can
    // be what makes two loads agree.
    let loads = std::thread::spawn(|| {
        (0..3)
            .map(|_| {
                let k = Kernel::new();
                let drv = e1000::decaf::install(&k, "eth0").unwrap();
                (
                    drv.init_latency_ns,
                    drv.crossings(),
                    drv.channel.stats(),
                    k.snapshot(),
                )
            })
            .collect::<Vec<_>>()
    })
    .join()
    .expect("the install thread panicked");
    assert!(loads[0].0 > 0 && loads[0].1 > 0);
    assert_eq!(loads[0], loads[2], "cold image vs warm image");
    assert_eq!(loads[0], loads[1]);
}
