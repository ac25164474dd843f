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
