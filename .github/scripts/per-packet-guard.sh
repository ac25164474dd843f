#!/bin/sh
# Prints every line of the NIC data paths that copies a frame out of DMA
# memory into a `Vec` (`read_bytes(`) or boxes a work item
# (`schedule_work(`) — the two per-packet allocations PR 20 removed.
# Product code only: each file up to its trailing test module. The
# watchdog work item, boxed once every two virtual seconds, is the one
# exemption. A listed file that does not exist prints "<file>: missing",
# so a move or rename cannot drop it from the guard unnoticed. CI
# requires the output to be empty:
#
#   test -z "$(.github/scripts/per-packet-guard.sh)"
#
# Lend the frame (`DmaMemory::with_bytes` + `Kernel::netif_rx`) and queue
# recurring work by handle (`Kernel::schedule_work_handle`) instead.
set -eu
cd "$(dirname "$0")/../.."
for f in \
    crates/drivers/src/e1000/mod.rs \
    crates/drivers/src/e1000/decaf.rs \
    crates/drivers/src/ringnic.rs \
    crates/drivers/src/rtl8139.rs \
    crates/drivers/src/support.rs \
    crates/simdev/src/e1000.rs \
    crates/simdev/src/rtl8139.rs \
    crates/xpc/src/ringpath.rs \
    crates/xpc/src/shardpath.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -n 'read_bytes(\|schedule_work(' |
        grep -v '_watchdog_task' |
        sed "s|^|$f:|" || true
done

# Prints every `HashMap` in the product code of the storage data path —
# the sector pool's run and chain tables, the uhci pending-URB table and
# the flash store are slabs whose index is the handle, so no lookup
# there hashes. Product code only, each file up to its trailing test
# module; a listed file that does not exist prints "<file>: missing".
# Index a slab by the handle (slot plus generation) instead of hashing.
for f in \
    crates/shmring/src/sector.rs \
    crates/drivers/src/uhci.rs \
    crates/simdev/src/uhci.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -n 'HashMap' |
        sed "s|^|$f:|" || true
done
