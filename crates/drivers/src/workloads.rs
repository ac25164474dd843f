//! Workload generators for the Table 3 benchmarks.
//!
//! The paper measures: `netperf` TCP send/receive for the network
//! drivers, `mpg123` playback of a 256 Kb/s MP3 for sound, `tar` onto a
//! USB flash drive for uhci-hcd, and 30 seconds of moving the mouse for
//! psmouse. The generators here produce the same *shapes*: a paced
//! packet stream with a kernel-resident data path, blocking PCM writes
//! with rare control operations, a stream of bulk sector writes (plus a
//! streaming-read counterpart with a readahead window, for the storage
//! data-path ablation), and a low-rate input-event stream.
//!
//! Workload durations are virtual-time seconds; they default to a small
//! number so benchmarks finish quickly — the paper's 600 s netperf run is
//! reproduced in shape, not in wall-clock masochism.

use std::rc::Rc;

use decaf_simkernel::clock::ClockSnapshot;
use decaf_simkernel::usb::{Urb, UrbCompletion, UrbDir};
use decaf_simkernel::{KResult, Kernel};

/// Common measurements every workload reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadStats {
    /// Virtual time elapsed (ns).
    pub elapsed_ns: u64,
    /// Total CPU utilization (0–1).
    pub cpu_util: f64,
    /// Operations completed (packets, frames, sectors, events).
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl WorkloadStats {
    fn from_interval(before: &ClockSnapshot, after: &ClockSnapshot, ops: u64, bytes: u64) -> Self {
        WorkloadStats {
            elapsed_ns: before.elapsed_ns(after),
            cpu_util: before.utilization(after),
            ops,
            bytes,
        }
    }

    /// Achieved throughput in megabits per second of virtual time.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.bytes as f64 * 8.0) / (self.elapsed_ns as f64 / 1e9) / 1e6
    }
}

/// netperf-style paced transmit through a network interface.
///
/// Sends `pps` packets of `pkt_len` bytes per virtual second for
/// `seconds`, pacing with idle time like a fixed-rate source. Returns
/// stats over the steady-state interval.
pub fn netperf_send(
    kernel: &Kernel,
    ifname: &str,
    seconds: u32,
    pps: u32,
    pkt_len: usize,
) -> KResult<WorkloadStats> {
    let before = kernel.snapshot();
    let start = kernel.now_ns();
    let total = (seconds * pps) as u64;
    let interval_ns = 1_000_000_000u64 / pps.max(1) as u64;
    let mut sent = 0u64;
    for i in 0..total {
        kernel.trace_req_begin("net.pkt_ns", i);
        kernel.net_xmit(ifname, kernel.alloc_skb(pkt_len, (i & 0xff) as u8, 0x0800))?;
        kernel.schedule_point();
        kernel.trace_req_end("net.pkt_ns", i);
        sent += 1;
        // Pace to the offered rate.
        let target = start + (i + 1) * interval_ns;
        let now = kernel.now_ns();
        if now < target {
            kernel.run_for(target - now);
        }
    }
    let after = kernel.snapshot();
    let stats = kernel.net_stats(ifname);
    Ok(WorkloadStats::from_interval(
        &before,
        &after,
        sent,
        stats.tx_bytes.min(sent * pkt_len as u64),
    ))
}

/// netperf-style receive: a peer injects frames through `inject`.
pub fn netperf_recv(
    kernel: &Kernel,
    ifname: &str,
    seconds: u32,
    pps: u32,
    pkt_len: usize,
    inject: &dyn Fn(&Kernel, &[u8]),
) -> KResult<WorkloadStats> {
    let before = kernel.snapshot();
    let start = kernel.now_ns();
    let rx_before = kernel.net_stats(ifname).rx_packets;
    let total = (seconds * pps) as u64;
    let interval_ns = 1_000_000_000u64 / pps.max(1) as u64;
    let frame = vec![0x5au8; pkt_len];
    for i in 0..total {
        kernel.trace_req_begin("net.rx_ns", i);
        inject(kernel, &frame);
        kernel.schedule_point();
        kernel.trace_req_end("net.rx_ns", i);
        let target = start + (i + 1) * interval_ns;
        let now = kernel.now_ns();
        if now < target {
            kernel.run_for(target - now);
        }
    }
    let after = kernel.snapshot();
    let received = kernel.net_stats(ifname).rx_packets - rx_before;
    Ok(WorkloadStats::from_interval(
        &before,
        &after,
        received,
        received * pkt_len as u64,
    ))
}

/// mpg123-style playback: open, stream decoded PCM in half-second
/// chunks, close. The DAC drains in real (virtual) time, so the CPU sits
/// idle almost throughout — the paper's ~0% utilization.
pub fn mpg123(kernel: &Kernel, card: &str, seconds: u32) -> KResult<WorkloadStats> {
    const RATE: usize = 44_100;
    let before = kernel.snapshot();
    kernel.snd_pcm_open(card)?;
    let mut frames_played = 0u64;
    let chunk = vec![0i16; RATE]; // half a second of stereo frames
    for _ in 0..seconds * 2 {
        frames_played += kernel.snd_pcm_write(card, &chunk)? as u64;
        kernel.schedule_point();
    }
    kernel.snd_pcm_close(card)?;
    let after = kernel.snapshot();
    Ok(WorkloadStats::from_interval(
        &before,
        &after,
        frames_played,
        frames_played * 4,
    ))
}

/// tar-style archive extraction onto the flash drive: each file's
/// sectors are submitted as one burst (tar writes a file's pages
/// back-to-back out of the page cache), then the stream paces to USB
/// 1.0's ~1 ms/sector before the next file — so batching mechanisms see
/// the bursts a real archiver produces.
pub fn tar_to_flash(
    kernel: &Kernel,
    hcd: &str,
    files: u32,
    sectors_per_file: u32,
) -> KResult<WorkloadStats> {
    tar_to_flash_luns(kernel, hcd, 1, files, sectors_per_file)
}

/// Multi-LUN tar extraction: `luns` parallel archive streams, one per
/// logical unit, each writing `files` files of `sectors_per_file`
/// sectors. The streams interleave sector by sector — the shape of N
/// writers hitting N flash LUNs at once, which is what the sharded
/// storage queues spread across shards (each LUN's URBs stay FIFO on
/// one queue). Pacing stays ~1 ms per *sector slot*: the LUN streams
/// progress in lockstep, modeling media that serves its units in
/// parallel.
pub fn tar_to_flash_luns(
    kernel: &Kernel,
    hcd: &str,
    luns: u32,
    files: u32,
    sectors_per_file: u32,
) -> KResult<WorkloadStats> {
    use decaf_simdev::uhci::{ep_bulk_out, FLASH_CMD_WRITE, SECTOR_SIZE};
    let before = kernel.snapshot();
    let mut written = 0u64;
    let mut ops = 0u64;
    for f in 0..files {
        for s in 0..sectors_per_file {
            let sector = f * sectors_per_file + s;
            for lun in 0..luns {
                let mut data = Vec::with_capacity(5 + SECTOR_SIZE);
                data.push(FLASH_CMD_WRITE);
                data.extend_from_slice(&sector.to_le_bytes());
                data.resize(5 + SECTOR_SIZE, (f & 0xff) as u8 ^ lun as u8);
                // Request span: submit → completion callback, so the
                // histogram sees coalescing delay, not just CPU cost.
                let id = sector as u64 * luns as u64 + lun as u64;
                kernel.trace_req_begin("tar.urb_ns", id);
                kernel.usb_submit_urb(
                    hcd,
                    Urb {
                        endpoint: ep_bulk_out(lun as usize) as u8,
                        dir: UrbDir::Out,
                        data,
                    },
                    Rc::new(move |k, _| k.trace_req_end("tar.urb_ns", id)),
                )?;
                kernel.schedule_point();
                ops += 1;
                written += SECTOR_SIZE as u64;
            }
        }
        // USB 1.0 is slow: the file's burst drains at ~1 ms per sector
        // (about 4 Mb/s on the wire, half of full speed, realistic for
        // bulk storage).
        kernel.run_for(sectors_per_file as u64 * 1_000_000);
    }
    let after = kernel.snapshot();
    Ok(WorkloadStats::from_interval(&before, &after, ops, written))
}

/// Sectors a streaming read keeps in flight before pacing — the shape
/// of a readahead window.
pub const READAHEAD_SECTORS: u32 = 8;

/// tar-style streaming *read* from the flash drive: for every sector, a
/// stage command (bulk OUT) followed by the data transfer (bulk IN),
/// issued in readahead-window bursts and paced to the same ~1 ms/sector
/// wire rate as [`tar_to_flash`]. `ops`/`bytes` count completed data
/// transfers — short sectors report their true length, so `bytes` is
/// what the device actually delivered.
///
/// The readahead window is **per file**: an archiver reads file by
/// file, so the window drains at each file boundary instead of spanning
/// into the next file's sectors. (Bugfix: the window used to run over
/// the flat sector stream, so whenever the file length was not a
/// multiple of [`READAHEAD_SECTORS`] the file's final partial burst was
/// merged into the next file's window — the tail sectors of every file
/// were issued and paced as if they belonged to its successor. The
/// regression tests pin both the per-file burst structure and the
/// partial-tail totals.)
pub fn tar_from_flash(
    kernel: &Kernel,
    hcd: &str,
    files: u32,
    sectors_per_file: u32,
) -> KResult<WorkloadStats> {
    tar_from_flash_luns(kernel, hcd, 1, files, sectors_per_file)
}

/// Multi-LUN streaming read: `luns` parallel readers, one per logical
/// unit, each streaming back `files` files of `sectors_per_file`
/// sectors in per-file readahead windows. Within a burst the LUN
/// streams interleave command/data pairs sector by sector, so the
/// sharded build sees concurrent per-LUN transactions whose FIFO order
/// (stage `R`, then IN) must survive shard steering.
pub fn tar_from_flash_luns(
    kernel: &Kernel,
    hcd: &str,
    luns: u32,
    files: u32,
    sectors_per_file: u32,
) -> KResult<WorkloadStats> {
    use decaf_simdev::uhci::{ep_bulk_in, ep_bulk_out, FLASH_CMD_READ};
    let before = kernel.snapshot();
    let bytes = Rc::new(std::cell::Cell::new(0u64));
    let done = Rc::new(std::cell::Cell::new(0u64));
    // A stage command's completion does nothing: one for every command.
    let staged: UrbCompletion = Rc::new(|_, _| {});
    for f in 0..files {
        // The readahead window lives inside one file: the final burst
        // of a non-multiple file is issued (and paced) on its own, never
        // merged with the next file's sectors.
        let mut s = 0u32;
        while s < sectors_per_file {
            let burst = READAHEAD_SECTORS.min(sectors_per_file - s);
            for _ in 0..burst {
                let sector = f * sectors_per_file + s;
                for lun in 0..luns {
                    let mut cmd = vec![FLASH_CMD_READ];
                    cmd.extend_from_slice(&sector.to_le_bytes());
                    kernel.usb_submit_urb(
                        hcd,
                        Urb {
                            endpoint: ep_bulk_out(lun as usize) as u8,
                            dir: UrbDir::Out,
                            data: cmd,
                        },
                        Rc::clone(&staged),
                    )?;
                    let b = Rc::clone(&bytes);
                    let d = Rc::clone(&done);
                    let id = sector as u64 * luns as u64 + lun as u64;
                    kernel.trace_req_begin("tar.urb_ns", id);
                    kernel.usb_submit_urb(
                        hcd,
                        Urb {
                            endpoint: ep_bulk_in(lun as usize) as u8,
                            dir: UrbDir::In,
                            data: Vec::new(),
                        },
                        Rc::new(move |k, r| {
                            k.trace_req_end("tar.urb_ns", id);
                            if let Ok(data) = r {
                                b.set(b.get() + data.len() as u64);
                                d.set(d.get() + 1);
                            }
                        }),
                    )?;
                    kernel.schedule_point();
                }
                s += 1;
            }
            kernel.run_for(burst as u64 * 1_000_000);
        }
    }
    // Let coalesced doorbells flush and the last givebacks land.
    kernel.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
    let after = kernel.snapshot();
    Ok(WorkloadStats::from_interval(
        &before,
        &after,
        done.get(),
        bytes.get(),
    ))
}

/// move-and-click: injects mouse movement at `events_per_sec` for
/// `seconds` and counts the input events the driver reported.
pub fn move_and_click(
    kernel: &Kernel,
    devname: &str,
    seconds: u32,
    events_per_sec: u32,
    inject: &dyn Fn(&Kernel, i8, i8, bool),
) -> KResult<WorkloadStats> {
    let before = kernel.snapshot();
    let start = kernel.now_ns();
    let events_before = kernel.input_event_count(devname);
    let total = (seconds * events_per_sec) as u64;
    let interval_ns = 1_000_000_000u64 / events_per_sec.max(1) as u64;
    for i in 0..total {
        let dx = ((i % 7) as i8) - 3;
        let dy = ((i % 5) as i8) - 2;
        inject(kernel, dx, dy, i % 50 == 0);
        kernel.schedule_point();
        let target = start + (i + 1) * interval_ns;
        let now = kernel.now_ns();
        if now < target {
            kernel.run_for(target - now);
        }
    }
    let after = kernel.snapshot();
    let events = kernel.input_event_count(devname) - events_before;
    Ok(WorkloadStats::from_interval(
        &before,
        &after,
        events,
        events * 3,
    ))
}

// ---------------------------------------------------------------------
// Open-loop entry points. The closed-loop generators above decide the
// next request by waiting for the last one; the open-loop engine in
// `decaf-core` instead walks a pre-computed arrival schedule and calls
// these per arrival. They are deliberately thin — one request in, the
// shard it landed on out — so latency accounting (completion time minus
// *scheduled* arrival time) stays entirely with the engine.

/// Posts one open-loop packet descriptor: steer by cookie, post into
/// that shard's ring under its cost scope, let the watermark/deadline
/// policy decide the doorbell. On a full ring the doorbell is rung once
/// (draining the ring) and the post retried — the same staged
/// backpressure contract the submit paths use.
pub fn open_loop_packet(
    kernel: &Kernel,
    net: &crate::support::OpenLoopNet,
    len: u32,
    cookie: u64,
) -> decaf_xpc::XpcResult<usize> {
    use decaf_shmring::{BufHandle, Descriptor};
    let shard = net.steer(cookie);
    let dp = &net.paths[shard];
    kernel.shard_scope(shard, || {
        let desc = Descriptor {
            buf: BufHandle(cookie as u32),
            len,
            cookie,
        };
        if dp.post(kernel, desc).is_err() {
            dp.ring_doorbell(kernel)?;
            dp.post(kernel, desc)?;
        }
        dp.maybe_ring(kernel)?;
        Ok(shard)
    })
}

/// Reclaims completed open-loop packets across all shards, returning
/// their cookies (the engine maps cookies back to scheduled arrivals).
pub fn open_loop_packet_reclaim(kernel: &Kernel, net: &crate::support::OpenLoopNet) -> Vec<u64> {
    let mut done = Vec::new();
    for (i, dp) in net.paths.iter().enumerate() {
        kernel.shard_scope(i, || {
            dp.reclaim_completions_with(kernel, |d| done.push(d.cookie))
        });
    }
    done
}

/// Submits one open-loop storage URB (a 512-byte sector write steered
/// by LUN) and returns the shard it landed on. Backpressure propagates
/// to the caller: `ShardedUrbPath::submit_out` already stages its own
/// reclaim-and-retry, so a residual error means the shard is genuinely
/// saturated and the engine should treat the request as waiting.
pub fn open_loop_urb(
    kernel: &Kernel,
    path: &decaf_xpc::ShardedUrbPath,
    lun_count: u64,
    payload: &[u8],
    cookie: u64,
) -> decaf_xpc::XpcResult<usize> {
    path.submit_out(kernel, cookie % lun_count.max(1), 2, payload, cookie)
}

/// Reclaims completed open-loop URBs, returning their cookies.
pub fn open_loop_urb_reclaim(kernel: &Kernel, path: &decaf_xpc::ShardedUrbPath) -> Vec<u64> {
    path.reclaim(kernel).into_iter().map(|r| r.cookie).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netperf_send_on_native_e1000() {
        let k = Kernel::new();
        let _drv = crate::e1000::native::install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        let stats = netperf_send(&k, "eth0", 1, 500, 1500).unwrap();
        assert_eq!(stats.ops, 500);
        assert!(
            stats.cpu_util > 0.0 && stats.cpu_util < 1.0,
            "{}",
            stats.cpu_util
        );
        assert!(stats.throughput_mbps() > 1.0);
        // Virtual time advanced roughly one second.
        assert!((900_000_000..1_600_000_000).contains(&stats.elapsed_ns));
    }

    #[test]
    fn mpg123_on_native_ens1371_is_nearly_idle() {
        let k = Kernel::new();
        let _drv = crate::ens1371::native(&k, "card0").unwrap();
        let stats = mpg123(&k, "card0", 2).unwrap();
        assert_eq!(stats.ops, 44_100 * 2);
        assert!(stats.cpu_util < 0.05, "sound is idle: {}", stats.cpu_util);
        assert!(stats.elapsed_ns >= 1_900_000_000);
    }

    #[test]
    fn tar_on_native_uhci_writes_sectors() {
        let k = Kernel::new();
        let drv = crate::uhci::install_native(&k, "uhci0").unwrap();
        let stats = tar_to_flash(&k, "uhci0", 4, 16).unwrap();
        assert_eq!(stats.ops, 64);
        assert_eq!(drv.dev.borrow().flash_sector_count(), 64);
        assert!(
            stats.cpu_util < 0.2,
            "USB 1.0 is low-utilization: {}",
            stats.cpu_util
        );
    }

    #[test]
    fn tar_streaming_read_on_native_uhci() {
        let k = Kernel::new();
        let drv = crate::uhci::install_native(&k, "uhci0").unwrap();
        // Preloaded media: the read workload measures reads, not writes.
        for s in 0..32u32 {
            drv.dev.borrow_mut().preload_sector(s, vec![s as u8; 512]);
        }
        let stats = tar_from_flash(&k, "uhci0", 2, 16).unwrap();
        assert_eq!(stats.ops, 32);
        assert_eq!(stats.bytes, 32 * 512);
        assert_eq!(drv.dev.borrow().flash_reads(), 32);
        assert!(
            stats.cpu_util < 0.2,
            "USB 1.0 is low-utilization: {}",
            stats.cpu_util
        );
    }

    #[test]
    fn tar_streaming_read_on_shmring_uhci_is_zero_copy() {
        let k = Kernel::new();
        let drv = crate::uhci::install_sharded(&k, "uhci0", 1).unwrap();
        for s in 0..32u32 {
            drv.dev.borrow_mut().preload_sector(s, vec![s as u8; 512]);
        }
        let stats = tar_from_flash(&k, "uhci0", 2, 16).unwrap();
        assert_eq!(stats.ops, 32, "every giveback dispatched");
        assert_eq!(stats.bytes, 32 * 512);
        assert_eq!(k.stats().bytes_copied, 0, "bulk payloads never copied");
        assert!(drv.urb_path.conserved());
        assert!(
            drv.channels.stats().descriptors_per_doorbell() > 2.0,
            "readahead bursts amortize doorbells: {}",
            drv.channels.stats().descriptors_per_doorbell()
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn tar_streaming_read_windows_do_not_span_files() {
        // Regression (readahead-window fix): with sectors_per_file not a
        // multiple of READAHEAD_SECTORS, every file ends in a partial
        // burst that must be issued and completed on its own — before
        // the fix the window ran over the flat sector stream and merged
        // each file's tail into the next file's window. 3 files x 11
        // sectors: per-file windows are 8+3; the flat stream would have
        // produced 8+8+8+8+1.
        let k = Kernel::new();
        let drv = crate::uhci::install_native(&k, "uhci0").unwrap();
        for s in 0..33u32 {
            drv.dev.borrow_mut().preload_sector(s, vec![s as u8; 512]);
        }
        let stats = tar_from_flash(&k, "uhci0", 3, 11).unwrap();
        assert_eq!(stats.ops, 33, "every sector of every partial tail read");
        assert_eq!(stats.bytes, 33 * 512);
        assert_eq!(drv.dev.borrow().flash_reads(), 33);
        // Pacing covers each file's full window sequence (8 + 3 slots
        // per file): the partial tail is paced, not dropped or deferred
        // into the next file.
        assert!(
            stats.elapsed_ns >= 33 * 1_000_000,
            "partial tails must be paced: {} ns",
            stats.elapsed_ns
        );
    }

    #[test]
    fn tar_streaming_read_partial_tail_on_shmring_build() {
        // The same regression on the ring path: sub-watermark tails rely
        // on the coalescing deadline, so a lost partial burst would show
        // up as missing ops here first.
        let k = Kernel::new();
        let drv = crate::uhci::install_sharded(&k, "uhci0", 1).unwrap();
        for s in 0..10u32 {
            drv.dev.borrow_mut().preload_sector(s, vec![7; 512]);
        }
        let stats = tar_from_flash(&k, "uhci0", 2, 5).unwrap();
        assert_eq!(stats.ops, 10, "both files' sub-window tails completed");
        assert_eq!(stats.bytes, 10 * 512);
        assert_eq!(k.stats().bytes_copied, 0);
        assert!(drv.urb_path.conserved());
    }

    #[test]
    fn multi_lun_tar_round_trips_on_sharded_uhci() {
        let k = Kernel::new();
        let drv = crate::uhci::install_sharded(&k, "uhci0", 4).unwrap();
        let w = tar_to_flash_luns(&k, "uhci0", 4, 2, 8).unwrap();
        assert_eq!(w.ops, 4 * 2 * 8, "every LUN stream written");
        assert_eq!(drv.dev.borrow().flash_sector_count(), 64);
        let r = tar_from_flash_luns(&k, "uhci0", 4, 2, 8).unwrap();
        assert_eq!(r.ops, w.ops, "every LUN stream read back");
        assert_eq!(r.bytes, w.bytes);
        assert_eq!(k.stats().bytes_copied, 0, "zero-copy across all LUNs");
        assert!(drv.urb_path.conserved());
        let used = (0..4)
            .filter(|&i| drv.urb_path.set().shard_stats(i).posted > 0)
            .count();
        assert!(used >= 2, "LUN steering left traffic on {used} shard(s)");
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn mouse_events_flow() {
        let k = Kernel::new();
        let drv = crate::psmouse::native(&k, "mouse0").unwrap();
        let dev = Rc::clone(&drv.dev);
        let stats = move_and_click(&k, "mouse0", 1, 100, &move |k, dx, dy, b| {
            dev.borrow_mut().inject_move(k, dx, dy, b);
        })
        .unwrap();
        assert!(stats.ops >= 200, "x+y per packet: {}", stats.ops);
        assert!(stats.cpu_util < 0.05);
    }
}
