#!/bin/sh
# Prints every line of the NIC data paths that copies a frame out of DMA
# memory into a `Vec` (`read_bytes(`) — a per-packet allocation those
# paths no longer make. (A boxed work item, the other one, no longer
# compiles: work is queued by handle only.) Product code only: each file up to its trailing test module. A listed
# file that does not exist prints "<file>: missing", so a move or rename
# cannot drop it from the guard unnoticed. CI requires the output to be
# empty:
#
#   test -z "$(.github/scripts/per-packet-guard.sh)"
#
# Lend the frame (`DmaMemory::with_bytes` + `Kernel::netif_rx`) instead.
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
        grep -n 'read_bytes(' |
        sed "s|^|$f:|" || true
done

# Prints every `HashMap` in the product code of the storage data path —
# the sector pool's run and chain tables, the uhci pending-URB table and
# the flash store are slabs whose index is the handle, and the USB core
# finds a host controller by comparing names, so no lookup there hashes.
# Product code only, each file up to its trailing test module; a listed
# file that does not exist prints "<file>: missing". Index a slab by the
# handle (slot plus generation) instead of hashing.
for f in \
    crates/shmring/src/sector.rs \
    crates/drivers/src/uhci.rs \
    crates/simdev/src/uhci.rs \
    crates/simkernel/src/usb.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -n 'HashMap' |
        sed "s|^|$f:|" || true
done

# Prints every call in the product code of the five decaf drivers and
# their shared glue that names its procedure with a string literal — a
# `.call(`, `.call_deferred(`, `upcall(` or `upcall_errno(` whose
# arguments, up to the closing parenthesis, hold a `"` — as
# `<file>:<line of the call>:<that line>`. A driver registers a procedure
# once and calls it by the handle registering returned, so no call
# searches a name. Product code only, each file up to its trailing test
# module; a listed file that does not exist prints "<file>: missing".
for f in \
    crates/drivers/src/e1000/decaf.rs \
    crates/drivers/src/rtl8139.rs \
    crates/drivers/src/ens1371.rs \
    crates/drivers/src/uhci.rs \
    crates/drivers/src/psmouse.rs \
    crates/drivers/src/support.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        awk -v f="$f" '
            # Appends `s` to the call text up to the parenthesis that
            # closes the call; true once it has closed.
            function scan(s,    i, c) {
                for (i = 1; i <= length(s); i++) {
                    c = substr(s, i, 1)
                    if (c == "(") depth++
                    if (c == ")" && --depth == 0) {
                        text = text substr(s, 1, i)
                        return 1
                    }
                }
                text = text s
                return 0
            }
            function report() {
                if (text ~ /"/) print f ":" start ":" first
            }
            depth > 0 {
                if (scan($0)) report()
                next
            }
            $0 !~ /^[ \t]*\/\// && match($0, /(\.call|\.call_deferred|upcall|upcall_errno)\(/) {
                start = NR; first = $0; text = ""
                if (scan(substr($0, RSTART + RLENGTH - 1))) report()
            }
        ' || true
done

# Prints every `allow(dead_code)` in the product code of every crate —
# state that is stored and never read goes, rather than being silenced.
# Product code only, each file up to its trailing test module; a listed
# directory that does not exist prints "<dir>: missing".
for d in crates/*/src
do
    if [ ! -d "$d" ]; then
        echo "$d: missing"
        continue
    fi
    for f in $(find "$d" -name '*.rs' | sort)
    do
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            grep -n 'allow(dead_code)' |
            sed "s|^|$f:|" || true
    done
done

# Prints every `rmmod(` in the product code of the drivers outside
# `support.rs`: every build unloads by running the teardown record its
# install filled (`support::Unload`), so unload is said once. Product
# code only, each file up to its trailing test module; a listed
# directory or file that does not exist prints "<path>: missing".
d=crates/drivers/src
for p in "$d" "$d/support.rs"
do
    if [ ! -e "$p" ]; then
        echo "$p: missing"
    fi
done
if [ -d "$d" ]; then
    for f in $(find "$d" -name '*.rs' ! -path "$d/support.rs" | sort)
    do
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            grep -n 'rmmod(' |
            sed "s|^|$f:|" || true
    done
fi

# Prints every `insmod(`, `timer_create(`, `work_timer(` or
# `NuclearRuntime::new(` in the product code of the drivers outside
# `support.rs`: an install loads its module, builds its nuclear runtime
# and arms its timers through the load record it fills
# (`support::Unload`), so no build loads or arms something its `remove`
# does not undo. Product code only, each file up to its trailing test
# module; a listed directory or file that does not exist prints
# "<path>: missing".
d=crates/drivers/src
for p in "$d" "$d/support.rs"
do
    if [ ! -e "$p" ]; then
        echo "$p: missing"
    fi
done
if [ -d "$d" ]; then
    for f in $(find "$d" -name '*.rs' ! -path "$d/support.rs" | sort)
    do
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            grep -n 'insmod(\|timer_create(\|work_timer(\|NuclearRuntime::new(' |
            sed "s|^|$f:|" || true
    done
fi

# Prints every `call_deferred` in the product code of the ring data
# paths: a doorbell launches through `XpcChannel::launch_resolved`, which
# parks it only behind calls already parked, so no doorbell pays for a
# park and a drain of its own. Product code only, each file up to its
# trailing test module; a listed file that does not exist prints
# "<file>: missing".
for f in \
    crates/xpc/src/ringpath.rs \
    crates/xpc/src/shardpath.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -n 'call_deferred' |
        sed "s|^|$f:|" || true
done

# Prints every `pub fn install*` in the product code of the drivers that
# is not on the list below: the installers `decaf_bench` calls by name
# (`decaf_bench/README.md`, "Pinned entry points"), the one table-driven
# `install`, and the two open-loop rigs. Every other build is reached as
# `drivers::install(kernel, name, Build { driver, hosting })`, so a new
# build is a `Hosting` entry in `Build::ALL`, not a function. Product
# code only, each file up to its trailing test module; a listed file
# that does not exist prints "<file>: missing".
d=crates/drivers/src
allowed="
$d/e1000/decaf.rs:install
$d/e1000/decaf.rs:install_sharded
$d/e1000/decaf.rs:install_shmring_poll
$d/e1000/native.rs:install
$d/rtl8139.rs:install_decaf
$d/ens1371.rs:install_decaf
$d/uhci.rs:install_decaf
$d/uhci.rs:install_sharded
$d/uhci.rs:install_native
$d/psmouse.rs:install_decaf
$d/lib.rs:install
$d/support.rs:install_open_loop_net
$d/support.rs:install_open_loop_storage
"
for f in $(echo "$allowed" | sed 's/:.*//' | sort -u)
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
    fi
done
if [ -d "$d" ]; then
    for f in $(find "$d" -name '*.rs' | sort)
    do
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            grep -n 'pub fn install[A-Za-z0-9_]*' |
            while IFS= read -r hit
            do
                name=$(echo "$hit" | sed 's/.*pub fn \(install[A-Za-z0-9_]*\).*/\1/')
                if ! echo "$allowed" | grep -qx "$f:$name"; then
                    echo "$f:$hit"
                fi
            done
    done
fi

# Prints every std `HashMap`, `HashSet` or `BTreeMap` in the product code
# of the tables a driver load consults per object — the heap, the walk
# tables, the object tracker and the sharded facade's homes — and of the
# ring sets' origin ledger, consulted per descriptor; and every
# field a driver names with a string literal: a `.scalar(`,
# `.set_scalar(` or `.update_scalar(` whose field argument (the second,
# across lines) is a `"` literal, as `<file>:<line of the call>:<that
# line>`. The heap is a slab indexed by address, the address tables hash
# through `decaf_xdr::intmap::IntMap`, the origin ledger is a table
# indexed by the cookie's own bits, and a driver reads and writes
# fields by the `FieldHandle`s its image resolved once
# (`support::Linked`). Product code only, each file up to its trailing
# test module; a listed file or directory that does not exist prints
# "<path>: missing".
for f in \
    crates/xdr/src/graph.rs \
    crates/xpc/src/tracker.rs \
    crates/xpc/src/shard.rs \
    crates/shmring/src/ringset.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -n 'HashMap\|HashSet\|BTreeMap' |
        sed "s|^|$f:|" || true
done
d=crates/drivers/src
if [ ! -d "$d" ]; then
    echo "$d: missing"
else
    for f in $(find "$d" -name '*.rs' | sort)
    do
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            awk -v f="$f" '
                # Reads `s` up to the parenthesis that closes the call,
                # collecting the second argument; true once it closed.
                function scan(s,    i, c) {
                    for (i = 1; i <= length(s); i++) {
                        c = substr(s, i, 1)
                        if (c == "(") depth++
                        if (c == ")" && --depth == 0) return 1
                        if (depth == 1 && c == ",") args++
                        else if (args == 1) field = field c
                    }
                    return 0
                }
                function report() {
                    if (field ~ /^[ \t]*"/) print f ":" start ":" first
                }
                depth > 0 {
                    if (scan($0)) report()
                    next
                }
                $0 !~ /^[ \t]*\/\// && match($0, /\.(set_|update_)?scalar\(/) {
                    start = NR; first = $0; field = ""; args = 0
                    if (scan(substr($0, RSTART + RLENGTH - 1))) report()
                }
            ' || true
    done
fi

# Prints every `decaf_readl(`, `decaf_writel(` or `set_field(` in the
# product code of the merged drivers: each control entry point is one
# body over `support::Io`, and only `support::Over` — the decaf hosting
# of that body — reaches registers and root fields through the channel.
# A call here would be a second, decaf-only copy of a control path.
# Product code only, each file up to its trailing test module; a listed
# file that does not exist prints "<file>: missing".
for f in \
    crates/drivers/src/e1000/mod.rs \
    crates/drivers/src/e1000/decaf.rs \
    crates/drivers/src/e1000/native.rs \
    crates/drivers/src/rtl8139.rs \
    crates/drivers/src/ens1371.rs \
    crates/drivers/src/uhci.rs \
    crates/drivers/src/psmouse.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -n 'decaf_readl(\|decaf_writel(\|set_field(' |
        sed "s|^|$f:|" || true
done

# Prints every name of the dispatch state in the product code of the
# kernel core: the line table, the timer heap and the work queue, the
# lowest-pending-line scan and the root deadline belong to
# `simkernel::dispatch::Dispatch`, which `Kernel` keeps in one `RefCell`
# and calls into. `Kernel::schedule_point` is one loop over
# `Dispatch::next`, so a second copy of the order rule, or of the cached
# root deadline dispatch used to read, shows here. Product code only, up
# to the trailing test module; a listed file that does not exist prints
# "<file>: missing".
for f in \
    crates/simkernel/src/kernel.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nw 'IrqLine\|Timers\|VecDeque\|trailing_zeros\|next_deadline' |
        sed "s|^|$f:|" || true
done

# Prints every hand-written copy of the counter rule in the product code
# of the files that declare the eight counter sets: which counters add
# and which are high-water marks is stated once per set, in its
# `decaf_simkernel::counters!` declaration, and `merge` / `since` are
# generated from it; a counter set kept in a `Cell` is updated through
# `counters::Bump`. A `fn merge(` / `fn since(` / `fn combine(` /
# `fn bump…(`, or a `#[derive(` directly above a `…Stats` struct, is a
# second copy of the rule or a set declared around the macro. Product
# code only, up to the trailing test module; a listed file that does not
# exist prints "<file>: missing".
for f in \
    crates/xpc/src/endpoint.rs \
    crates/xpc/src/admission.rs \
    crates/simkernel/src/kernel.rs \
    crates/simkernel/src/net.rs \
    crates/shmring/src/ring.rs \
    crates/shmring/src/pool.rs \
    crates/shmring/src/sector.rs \
    crates/shmring/src/ringset.rs
do
    if [ ! -f "$f" ]; then
        echo "$f: missing"
        continue
    fi
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        awk -v f="$f" '
            /fn (merge|since|combine|bump[a-z_]*)\(/ { print f ":" NR ":" $0 }
            /^[ \t]*(pub )?struct [A-Za-z]*Stats[ {<]/ && derive {
                print f ":" derive_at ":" derive
            }
            { derive = ""; if ($0 ~ /^[ \t]*#\[derive\(/) { derive = $0; derive_at = NR } }
        ' || true
done
