//! Dispatch state: the interrupt lines, the timers and the work queue,
//! and the rule that picks which of them runs next.
//!
//! [`Dispatch`] is a plain value. [`crate::Kernel`] keeps one in a
//! `RefCell`, takes [`Dispatch::next`] under a borrow, and releases the
//! borrow before it runs what `next` returned, so a handler, a timer
//! callback or a work body may change dispatch state as it likes. Every
//! callback `Dispatch` gives back — a freed handler, a deleted timer's
//! callback — is dropped by the kernel outside the borrow as well: a
//! captured value's `Drop` may call back into the kernel.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::error::{KError, KResult};
use crate::kernel::{IrqHandler, WorkBody};
#[cfg(debug_assertions)]
use crate::mutation::{self, Mutant};

/// A timer callback.
pub(crate) type TimerFn = IrqHandler;

/// A line the controller does not have: the call changed nothing. The
/// controller has 64, one bit each in the pending and masked words.
pub(crate) struct NoSuchLine;

/// The bit of `line` in the pending and masked words.
#[inline]
fn irq_bit(line: u32) -> Result<u64, NoSuchLine> {
    1u64.checked_shl(line).ok_or(NoSuchLine)
}

#[derive(Default)]
pub(crate) struct IrqLine {
    handler: Option<IrqHandler>,
    disable_depth: u32,
}

struct TimerEntry {
    /// `None` once the timer is deleted: whatever the closure captured
    /// is freed with the timer, not with the kernel.
    callback: Option<TimerFn>,
    period_ns: Option<u64>,
    /// This timer's slot in [`Timers::armed`], while it is armed.
    slot: Option<usize>,
}

/// The timer table plus the armed timers as a binary min-heap of
/// `(deadline, timer index)` keyed by deadline. Dispatch never walks the
/// table: the earliest deadline is the heap's root, and the timers due at
/// `now` are exactly the connected subtree at the root whose deadlines
/// are `<= now`, so a fire visits the due timers and nothing else.
///
/// The firing rule is **lowest timer index among the due timers**, not
/// earliest deadline: busy time can carry the clock past several
/// deadlines at once, and the order they then fire in is creation order.
#[derive(Default)]
struct Timers {
    entries: Vec<TimerEntry>,
    armed: Vec<(u64, usize)>,
}

impl Timers {
    /// Arms (or re-arms) live timer `idx` for `deadline`.
    fn arm(&mut self, idx: usize, deadline: u64, period_ns: Option<u64>) {
        let Some(t) = self.entries.get_mut(idx).filter(|t| t.callback.is_some()) else {
            return;
        };
        t.period_ns = period_ns;
        let slot = t.slot.unwrap_or_else(|| {
            self.armed.push((deadline, idx));
            self.armed.len() - 1
        });
        self.armed[slot].0 = deadline;
        self.sift(slot);
    }

    fn disarm(&mut self, idx: usize) {
        if let Some(slot) = self.entries.get_mut(idx).and_then(|t| t.slot.take()) {
            self.armed.swap_remove(slot);
            if slot < self.armed.len() {
                self.sift(slot);
            }
        }
    }

    /// Restores the heap order around `slot` after its key changed (or a
    /// different entry was moved into it), keeping every moved timer's
    /// `slot` current.
    fn sift(&mut self, mut slot: usize) {
        while slot > 0 && self.armed[slot].0 < self.armed[(slot - 1) / 2].0 {
            self.armed.swap(slot, (slot - 1) / 2);
            self.entries[self.armed[slot].1].slot = Some(slot);
            slot = (slot - 1) / 2;
        }
        loop {
            let mut least = slot;
            for child in [2 * slot + 1, 2 * slot + 2] {
                if child < self.armed.len() && self.armed[child].0 < self.armed[least].0 {
                    least = child;
                }
            }
            if least == slot {
                break;
            }
            self.armed.swap(slot, least);
            self.entries[self.armed[slot].1].slot = Some(slot);
            slot = least;
        }
        self.entries[self.armed[slot].1].slot = Some(slot);
    }

    /// Takes the next timer to fire at `now` — the lowest index among the
    /// due ones — re-arming it `period` past `now` if periodic, disarming
    /// it otherwise.
    #[inline]
    fn take_due(&mut self, now: u64) -> Option<TimerFn> {
        let (mut slot, mut first) = (0, None::<usize>);
        loop {
            if let Some(&(_, idx)) = self.armed.get(slot).filter(|&&(d, _)| d <= now) {
                first = Some(first.map_or(idx, |f| f.min(idx)));
                slot = 2 * slot + 1;
                continue;
            }
            // Not due (or past the end): nothing below is due either.
            // Climb out of right subtrees, then cross to the sibling.
            while slot > 0 && slot % 2 == 0 {
                slot = (slot - 1) / 2;
            }
            if slot == 0 {
                break;
            }
            slot += 1;
        }
        let idx = first?;
        match self.entries[idx].period_ns {
            Some(p) => self.arm(idx, now + p, Some(p)),
            None => self.disarm(idx),
        }
        self.entries[idx].callback.clone()
    }
}

/// What runs next: a line's handler, a due timer's callback, or the
/// oldest work item.
pub(crate) enum Source {
    Irq(IrqHandler),
    Timer(TimerFn),
    Work(WorkBody, u64),
}

/// The interrupt lines, the timers and the work queue.
#[derive(Default)]
pub(crate) struct Dispatch {
    pub(crate) lines: Vec<IrqLine>,
    /// One bit per line: raised and not yet delivered.
    pending: u64,
    /// One bit per line: `disable_depth > 0`.
    masked: u64,
    timers: Timers,
    /// Queued work: a shared body and its run's argument word.
    work: VecDeque<(WorkBody, u64)>,
    /// Whether a dispatch loop is running.
    pub(crate) dispatching: bool,
}

impl Dispatch {
    /// Picks what runs next at `now`, in this order: the lowest unmasked
    /// pending line with a handler (a pending line with none is spurious
    /// and dropped on the way); else the lowest-index due timer, re-armed
    /// `period` past `now` if periodic, disarmed otherwise; else the
    /// oldest work item.
    #[inline]
    pub(crate) fn next(&mut self, now: u64) -> Option<Source> {
        while self.pending & !self.masked != 0 {
            let line = (self.pending & !self.masked).trailing_zeros();
            self.pending &= !(1 << line);
            let handler = self.lines.get(line as usize).map(|l| &l.handler);
            if let Some(Some(handler)) = handler {
                return Some(Source::Irq(Rc::clone(handler)));
            }
        }
        // The root first: most rounds find no timer due. An armed timer
        // always has its callback, so a due root always fires one.
        if self.earliest_deadline().is_some_and(|d| d <= now) {
            return self.timers.take_due(now).map(Source::Timer);
        }
        let (body, arg) = self.work.pop_front()?;
        Some(Source::Work(body, arg))
    }

    // ---------------------------------------------------------- lines

    fn line_mut(&mut self, line: u32) -> &mut IrqLine {
        let line = line as usize;
        if self.lines.len() <= line {
            self.lines.resize_with(line + 1, IrqLine::default);
        }
        &mut self.lines[line]
    }

    /// Takes `handler` by reference, so a refused one is dropped by the
    /// caller, after the borrow.
    pub(crate) fn request_irq(&mut self, line: u32, handler: &IrqHandler) -> KResult<()> {
        let lacking = irq_bit(line).is_err();
        #[cfg(debug_assertions)] // Planted bug: the line is not checked.
        let lacking = lacking && !mutation::armed(Mutant::RequestIrqPastTheEnd);
        if lacking {
            return Err(KError::Inval);
        }
        let entry = self.line_mut(line);
        if entry.handler.is_some() {
            return Err(KError::Busy);
        }
        entry.handler = Some(Rc::clone(handler));
        Ok(())
    }

    /// Puts `line` back to its reset state — no handler, nothing pending,
    /// not disabled — and returns the handler it had.
    pub(crate) fn free_irq(&mut self, line: u32) -> Result<Option<IrqHandler>, NoSuchLine> {
        let bit = irq_bit(line)?;
        let Some(entry) = self.lines.get_mut(line as usize) else {
            return Ok(None);
        };
        self.pending &= !bit;
        #[cfg(debug_assertions)]
        if mutation::armed(Mutant::FreeIrqKeepsMask) {
            // Planted bug: the depth and the mask outlive the owner.
            return Ok(entry.handler.take());
        }
        self.masked &= !bit;
        Ok(std::mem::take(entry).handler)
    }

    pub(crate) fn disable_irq(&mut self, line: u32) -> Result<(), NoSuchLine> {
        self.masked |= irq_bit(line)?;
        self.line_mut(line).disable_depth += 1;
        Ok(())
    }

    pub(crate) fn enable_irq(&mut self, line: u32) -> Result<(), NoSuchLine> {
        let bit = irq_bit(line)?;
        if let Some(entry) = self.lines.get_mut(line as usize) {
            entry.disable_depth = entry.disable_depth.saturating_sub(1);
            if entry.disable_depth == 0 {
                self.masked &= !bit;
            }
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn raise_irq(&mut self, line: u32) -> Result<(), NoSuchLine> {
        self.pending |= irq_bit(line)?;
        Ok(())
    }

    pub(crate) fn irq_pending(&self, line: u32) -> bool {
        irq_bit(line).is_ok_and(|bit| self.pending & bit != 0)
    }

    // --------------------------------------------------------- timers

    pub(crate) fn timer_create(&mut self, callback: TimerFn) -> usize {
        self.timers.entries.push(TimerEntry {
            callback: Some(callback),
            period_ns: None,
            slot: None,
        });
        self.timers.entries.len() - 1
    }

    /// Arms (or re-arms) live timer `idx` for `deadline`.
    pub(crate) fn arm(&mut self, idx: usize, deadline: u64, period_ns: Option<u64>) {
        self.timers.arm(idx, deadline, period_ns);
    }

    /// Disarms and destroys timer `idx`, returning its callback.
    pub(crate) fn timer_del(&mut self, idx: usize) -> Option<TimerFn> {
        self.timers.disarm(idx);
        let entry = self.timers.entries.get_mut(idx)?;
        #[cfg(debug_assertions)]
        if mutation::armed(Mutant::TimerDelKeepsCallback) {
            // Planted bug: the callback outlives its timer.
            return None;
        }
        entry.callback.take()
    }

    pub(crate) fn timer_pending(&self, idx: usize) -> bool {
        let entry = self.timers.entries.get(idx);
        entry.is_some_and(|t| t.slot.is_some())
    }

    /// The earliest armed deadline: the heap's root.
    pub(crate) fn earliest_deadline(&self) -> Option<u64> {
        self.timers.armed.first().map(|&(d, _)| d)
    }

    // ----------------------------------------------------------- work

    #[inline]
    pub(crate) fn queue_work(&mut self, body: &WorkBody, arg: u64) {
        self.work.push_back((Rc::clone(body), arg));
    }

    pub(crate) fn work_pending(&self) -> usize {
        self.work.len()
    }
}

#[cfg(test)]
mod tests {
    //! Dispatch checked exhaustively against a small model.
    //!
    //! [`Model`] is dispatch written down as a transition system: three
    //! interrupt lines and the first line the controller lacks, two
    //! timers and two work bodies. Breadth-first search walks every event
    //! sequence up to [`DEPTH`], merging sequences that reach the same
    //! abstract state, and replays each step it takes — the shortest
    //! event path to the state it leaves, plus the event — on a fresh
    //! [`Kernel`]. The kernel must then agree with the model on what ran
    //! and when, on `irq_pending` / `timer_pending`, on the result of
    //! every `request_irq`, on whether a deleted timer's capture is freed,
    //! and, read through [`Rig::observe`], on the dispatch state itself.
    //! A mismatch fails with the shortest event list that shows it, ready
    //! to paste into [`replay`].

    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::fmt::Debug;
    use std::rc::{Rc, Weak};

    use crate::costs::{IRQ_ENTRY_NS, SOFTIRQ_DISPATCH_NS};
    use crate::error::{KError, KResult};
    use crate::kernel::{IrqHandler, Kernel, TimerId, WorkBody};
    #[cfg(debug_assertions)]
    use crate::mutation::{self, Mutant};

    /// The model's lines: three the controller has, then the first one
    /// it lacks.
    const LINES: [u32; 4] = [0, 1, 2, 64];
    /// The index of the past-the-end line in [`LINES`].
    const PAST: usize = 3;
    const ARM_NS: u64 = 1_000;
    const PERIOD_NS: u64 = 1_500;
    const STEP_NS: u64 = 2_000;
    /// How many events the search explores.
    const DEPTH: usize = 5;

    /// One thing a driver, a device or the clock does. Lines index
    /// [`LINES`]; timers and work bodies are 0 and 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Request(usize),
        Free(usize),
        Disable(usize),
        Enable(usize),
        Raise(usize),
        Arm(usize),
        ArmPeriodic(usize),
        Delete(usize),
        Queue(usize),
        Advance,
        SchedulePoint,
    }
    use Event::*;

    fn events() -> Vec<Event> {
        let mut all = Vec::new();
        for l in 0..LINES.len() {
            all.extend([Request(l), Free(l), Disable(l), Enable(l), Raise(l)]);
        }
        for t in 0..2 {
            all.extend([Arm(t), ArmPeriodic(t), Delete(t)]);
        }
        all.extend([Queue(0), Queue(1), Advance, SchedulePoint]);
        all
    }

    /// What ran. Line 1's handler raises line 0, timer 0 queues work
    /// body 0, and timer 1 deletes timer 0.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fire {
        Irq(usize),
        Timer(usize),
        Work(usize),
    }

    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
    struct Line {
        handler: bool,
        depth: u32,
        masked: bool,
        pending: bool,
    }

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
    struct Timer {
        live: bool,
        deadline: Option<u64>,
        period: Option<u64>,
    }

    /// The abstract dispatch state: how far the line table reaches, the
    /// lines it holds, the timers and the queued work bodies.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct State {
        table: usize,
        lines: [Line; 3],
        timers: [Timer; 2],
        work: Vec<usize>,
    }

    /// Dispatch as a transition system, and what it has done so far.
    #[derive(Clone)]
    struct Model {
        /// Deadlines are absolute here; [`Model::key`] makes them
        /// relative to `now`.
        state: State,
        now: u64,
        log: Vec<(Fire, u64)>,
        requests: Vec<KResult<()>>,
        violations: usize,
    }

    impl Model {
        fn new() -> Self {
            let live = Timer {
                live: true,
                ..Timer::default()
            };
            Model {
                state: State {
                    table: 0,
                    lines: Default::default(),
                    timers: [live; 2],
                    work: Vec::new(),
                },
                now: 0,
                log: Vec::new(),
                requests: Vec::new(),
                violations: 0,
            }
        }

        fn step(&mut self, event: Event) {
            let s = &mut self.state;
            match event {
                Request(PAST) => self.requests.push(Err(KError::Inval)),
                Free(PAST) | Disable(PAST) | Enable(PAST) | Raise(PAST) => self.violations += 1,
                Request(l) => {
                    s.table = s.table.max(l + 1);
                    let line = &mut s.lines[l];
                    let busy = std::mem::replace(&mut line.handler, true);
                    self.requests
                        .push(if busy { Err(KError::Busy) } else { Ok(()) });
                }
                Free(l) if l < s.table => s.lines[l] = Line::default(),
                Free(_) => {}
                Disable(l) => {
                    s.table = s.table.max(l + 1);
                    s.lines[l].depth += 1;
                    s.lines[l].masked = true;
                }
                Enable(l) if l < s.table => {
                    let line = &mut s.lines[l];
                    line.depth = line.depth.saturating_sub(1);
                    line.masked = line.depth > 0;
                }
                Enable(_) => {}
                Raise(l) => s.lines[l].pending = true,
                Arm(t) => self.arm(t, ARM_NS, None),
                ArmPeriodic(t) => self.arm(t, PERIOD_NS, Some(PERIOD_NS)),
                Delete(t) => s.timers[t] = Timer::default(),
                Queue(w) => s.work.push(w),
                Advance => self.run_for(STEP_NS),
                SchedulePoint => self.schedule_point(),
            }
        }

        fn arm(&mut self, t: usize, delay: u64, period: Option<u64>) {
            let timer = &mut self.state.timers[t];
            if timer.live {
                timer.deadline = Some(self.now + delay);
                timer.period = period;
            }
        }

        /// The order rule: the lowest unmasked pending line, dropping
        /// lines with no handler on the way; else the lowest-index due
        /// timer, re-armed `period` past now; else the oldest work.
        fn next(&mut self) -> Option<Fire> {
            let (s, now) = (&mut self.state, self.now);
            for (l, line) in s.lines.iter_mut().enumerate() {
                if line.pending && !line.masked {
                    line.pending = false;
                    if line.handler {
                        self.now += IRQ_ENTRY_NS;
                        return Some(Fire::Irq(l));
                    }
                }
            }
            let mut timers = s.timers.iter_mut().enumerate();
            if let Some((t, timer)) = timers.find(|(_, t)| t.deadline.is_some_and(|d| d <= now)) {
                timer.deadline = timer.period.map(|p| now + p);
                self.now += SOFTIRQ_DISPATCH_NS;
                return Some(Fire::Timer(t));
            }
            if s.work.is_empty() {
                return None;
            }
            let w = s.work.remove(0);
            self.now += SOFTIRQ_DISPATCH_NS;
            Some(Fire::Work(w))
        }

        fn schedule_point(&mut self) {
            while let Some(fire) = self.next() {
                self.log.push((fire, self.now));
                let s = &mut self.state;
                match fire {
                    Fire::Irq(1) => s.lines[0].pending = true,
                    Fire::Timer(0) => s.work.push(0),
                    Fire::Timer(1) => s.timers[0] = Timer::default(),
                    _ => {}
                }
            }
        }

        fn run_for(&mut self, ns: u64) {
            let end = self.now + ns;
            loop {
                self.schedule_point();
                if self.now >= end {
                    break;
                }
                let next = self.state.timers.iter().filter_map(|t| t.deadline).min();
                self.now = next.map_or(end, |d| d.clamp(self.now, end));
            }
            self.schedule_point();
        }

        /// The state with deadlines relative to now: two states with
        /// equal keys do the same things from here on, shifted in time.
        fn key(&self) -> State {
            let mut key = self.state.clone();
            for t in &mut key.timers {
                t.deadline = t.deadline.map(|d| d.saturating_sub(self.now));
            }
            key
        }
    }

    /// A fresh kernel with the model's handlers, timers and work bodies.
    struct Rig {
        k: Kernel,
        log: Rc<RefCell<Vec<(Fire, u64)>>>,
        handlers: Vec<IrqHandler>,
        timers: [TimerId; 2],
        captures: [Weak<()>; 2],
        work: [WorkBody; 2],
        requests: Vec<KResult<()>>,
    }

    impl Rig {
        fn new() -> Self {
            let k = Kernel::new();
            let log: Rc<RefCell<Vec<(Fire, u64)>>> = Rc::default();
            let note = |fire: Fire| {
                let log = Rc::clone(&log);
                move |k: &Kernel| log.borrow_mut().push((fire, k.now_ns()))
            };
            let handlers = (0..LINES.len())
                .map(|l| {
                    let note = note(Fire::Irq(l));
                    Rc::new(move |k: &Kernel| {
                        note(k);
                        if l == 1 {
                            k.raise_irq(LINES[0]);
                        }
                    }) as IrqHandler
                })
                .collect();
            let work = [0, 1].map(|w| {
                let note = note(Fire::Work(w));
                Rc::new(move |k: &Kernel, _| note(k)) as WorkBody
            });
            let captures = [Rc::new(()), Rc::new(())];
            let weak = [Rc::downgrade(&captures[0]), Rc::downgrade(&captures[1])];
            let [c0, c1] = captures;
            let (fired, body) = (note(Fire::Timer(0)), Rc::clone(&work[0]));
            let t0 = k.timer_create(
                "queues",
                Rc::new(move |k| {
                    drop(Rc::clone(&c0));
                    fired(k);
                    k.schedule_work_handle(&body, 0);
                }),
            );
            let fired = note(Fire::Timer(1));
            let t1 = k.timer_create(
                "deletes",
                Rc::new(move |k| {
                    drop(Rc::clone(&c1));
                    fired(k);
                    k.timer_del(t0);
                }),
            );
            Rig {
                k,
                log,
                handlers,
                timers: [t0, t1],
                captures: weak,
                work,
                requests: Vec::new(),
            }
        }

        fn step(&mut self, event: Event) {
            let k = &self.k;
            match event {
                Request(l) => {
                    let handler = Rc::clone(&self.handlers[l]);
                    self.requests
                        .push(k.request_irq(LINES[l], "model", handler));
                }
                Free(l) => k.free_irq(LINES[l]),
                Disable(l) => k.disable_irq(LINES[l]),
                Enable(l) => k.enable_irq(LINES[l]),
                Raise(l) => k.raise_irq(LINES[l]),
                Arm(t) => k.timer_arm(self.timers[t], ARM_NS),
                ArmPeriodic(t) => k.timer_arm_periodic(self.timers[t], PERIOD_NS),
                Delete(t) => k.timer_del(self.timers[t]),
                Queue(w) => k.schedule_work_handle(&self.work[w], 0),
                Advance => k.run_for(STEP_NS),
                SchedulePoint => k.schedule_point(),
            }
        }

        /// The kernel's dispatch state, read as the model's.
        fn observe(&self) -> State {
            let d = self.k.inner().dispatch.borrow();
            let lines = [0, 1, 2].map(|l| Line {
                handler: d.lines.get(l).is_some_and(|i| i.handler.is_some()),
                depth: d.lines.get(l).map_or(0, |i| i.disable_depth),
                masked: d.masked >> l & 1 == 1,
                pending: d.pending >> l & 1 == 1,
            });
            let now = self.k.now_ns();
            let timers = [0, 1].map(|t| {
                let e = &d.timers.entries[t];
                let deadline = e.slot.map(|s| d.timers.armed[s].0.saturating_sub(now));
                Timer {
                    live: e.callback.is_some(),
                    deadline,
                    period: deadline.and(e.period_ns),
                }
            });
            let work = d.work.iter().map(|(body, _)| {
                (0..2)
                    .find(|&w| Rc::ptr_eq(body, &self.work[w]))
                    .expect("only the model's bodies are queued")
            });
            State {
                table: d.lines.len(),
                lines,
                timers,
                work: work.collect(),
            }
        }

        /// The first way the kernel differs from `model`, if any.
        fn differs(&self, model: &Model) -> Option<String> {
            let k = &self.k;
            let (seen, key) = (self.observe(), model.key());
            let [p0, p1, p2] = key.lines.each_ref().map(|l| l.pending);
            let timers = key.timers;
            let checks = [
                show("fire log", &*self.log.borrow(), &model.log),
                show("now", k.now_ns(), model.now),
                show("requests", &self.requests, &model.requests),
                show(
                    "irq_pending",
                    LINES.map(|l| k.irq_pending(l)),
                    [p0, p1, p2, false],
                ),
                show(
                    "timer_pending",
                    self.timers.map(|t| k.timer_pending(t)),
                    timers.map(|t| t.deadline.is_some()),
                ),
                show(
                    "capture freed",
                    self.captures.each_ref().map(|c| c.upgrade().is_none()),
                    timers.map(|t| !t.live),
                ),
                show("violations", k.violations().len(), model.violations),
                show("line table", seen.table, key.table),
                show("lines", seen.lines, key.lines),
                show("timers", seen.timers, timers),
                show("work", seen.work, key.work),
            ];
            checks
                .into_iter()
                .find(|(_, kernel, model)| kernel != model)
                .map(|(what, kernel, model)| format!("{what}: kernel {kernel}, model {model}"))
        }
    }

    /// One property as the kernel and the model see it.
    fn show(what: &str, kernel: impl Debug, model: impl Debug) -> (&str, String, String) {
        (what, format!("{kernel:?}"), format!("{model:?}"))
    }

    /// Runs `path` on the model and on a fresh kernel, and says how they
    /// differ at the end, if they do.
    fn replay(path: &[Event]) -> Result<Model, String> {
        let (mut model, mut rig) = (Model::new(), Rig::new());
        for &event in path {
            model.step(event);
            rig.step(event);
        }
        match rig.differs(&model) {
            Some(why) => Err(why),
            None => Ok(model),
        }
    }

    /// A shortest event list on which the kernel and the model differ,
    /// and how.
    struct CounterExample {
        path: Vec<Event>,
        why: String,
    }

    impl std::fmt::Display for CounterExample {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "replay(&{:?}) — {}", self.path, self.why)
        }
    }

    /// Breadth-first search over every event sequence up to `depth`,
    /// replaying each step on the kernel. Returns the states visited.
    fn explore(depth: usize) -> Result<usize, CounterExample> {
        let mut seen = HashSet::new();
        seen.insert(Model::new().key());
        let mut frontier = vec![Vec::new()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for path in &frontier {
                for event in events() {
                    let mut path = path.clone();
                    path.push(event);
                    match replay(&path) {
                        Ok(model) if seen.insert(model.key()) => next.push(path),
                        Ok(_) => {}
                        Err(why) => return Err(CounterExample { path, why }),
                    }
                }
            }
            frontier = next;
        }
        Ok(seen.len())
    }

    #[test]
    fn the_kernel_dispatches_as_the_model_does() {
        let start = std::time::Instant::now();
        let visited = explore(DEPTH).unwrap_or_else(|c| panic!("counter-example: {c}"));
        println!(
            "dispatch model: {visited} states visited, every event sequence to depth {DEPTH}, {:?}",
            start.elapsed()
        );
    }

    /// The three dispatch bugs this crate fixed, re-planted one at a
    /// time: the search finds each, on the shortest event list that
    /// shows it.
    #[cfg(debug_assertions)]
    #[test]
    fn the_model_check_catches_the_three_dispatch_bugs() {
        let bugs = [
            (Mutant::TimerDelKeepsCallback, vec![Delete(0)]),
            (Mutant::FreeIrqKeepsMask, vec![Disable(0), Free(0)]),
            (Mutant::RequestIrqPastTheEnd, vec![Request(PAST)]),
        ];
        for (mutant, shortest) in bugs {
            mutation::arm(mutant);
            let found = explore(DEPTH);
            mutation::disarm();
            let c = found
                .err()
                .unwrap_or_else(|| panic!("{mutant:?} went unseen"));
            println!("{mutant:?}: {c}");
            assert_eq!(c.path, shortest, "{mutant:?}: {c}");
        }
    }
}
