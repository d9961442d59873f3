//! The benchmark-side store decorator.
//!
//! [`Instrumented`] wraps a store and forwards every
//! [`DistributedStore`] method to it unchanged, so a decorated run is
//! byte-identical to an undecorated one. Untraced, it only marks the
//! host instant at which `finish_load` returns, which splits set-up from
//! the transaction phase. Traced, it also times every call into the
//! store layer and counts the allocations made inside it. Per-op calls
//! are aggregated into counts and log histograms; the rare calls (end of
//! load, faults, timed events, checkpoints) are also kept as spans.

use crate::alloc::{self, AllocCount};
use apm_core::ops::{OpKind, OpOutcome, Operation};
use apm_core::record::Record;
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_core::stats::Histogram;
use apm_sim::{Engine, FaultEvent, Plan};
use apm_stores::api::{DistributedStore, StoreCtx};
use std::cell::RefCell;
use std::time::Instant;

/// A timed entry point of the store layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Load,
    FinishLoad,
    PlanRead,
    PlanScan,
    PlanInsert,
    PlanUpdate,
    Background,
    TimedEvent,
    Fault,
    PlanTarget,
    HedgePlan,
    Snap,
    Restore,
}

impl Call {
    pub const ALL: [Call; 13] = [
        Call::Load,
        Call::FinishLoad,
        Call::PlanRead,
        Call::PlanScan,
        Call::PlanInsert,
        Call::PlanUpdate,
        Call::Background,
        Call::TimedEvent,
        Call::Fault,
        Call::PlanTarget,
        Call::HedgePlan,
        Call::Snap,
        Call::Restore,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Call::Load => "load",
            Call::FinishLoad => "finish_load",
            Call::PlanRead => "plan_op.read",
            Call::PlanScan => "plan_op.scan",
            Call::PlanInsert => "plan_op.insert",
            Call::PlanUpdate => "plan_op.update",
            Call::Background => "on_background",
            Call::TimedEvent => "on_timed_event",
            Call::Fault => "on_fault",
            Call::PlanTarget => "plan_target",
            Call::HedgePlan => "hedge_read_plan",
            Call::Snap => "snap_state",
            Call::Restore => "restore_state",
        }
    }

    fn plan(kind: OpKind) -> Call {
        match kind {
            OpKind::Read => Call::PlanRead,
            OpKind::Scan => Call::PlanScan,
            OpKind::Insert => Call::PlanInsert,
            OpKind::Update => Call::PlanUpdate,
        }
    }

    /// Whether the call happens once per operation or record, so that
    /// only its aggregate is kept.
    fn per_op(self) -> bool {
        matches!(
            self,
            Call::Load
                | Call::PlanRead
                | Call::PlanScan
                | Call::PlanInsert
                | Call::PlanUpdate
                | Call::Background
                | Call::PlanTarget
                | Call::HedgePlan
        )
    }
}

/// Aggregate of one [`Call`]: host time and allocations inside it.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    /// Host nanoseconds per call.
    pub ns: Histogram,
    /// Exact sum of the recorded nanoseconds.
    pub total_ns: u128,
    pub alloc: AllocCount,
}

/// One rare call, in host nanoseconds from the trace origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything a traced decorator recorded.
#[derive(Debug)]
pub struct CallTrace {
    origin: Instant,
    stats: Vec<CallStats>,
    pub spans: Vec<Span>,
}

impl CallTrace {
    fn new(origin: Instant) -> CallTrace {
        CallTrace {
            origin,
            stats: vec![CallStats::default(); Call::ALL.len()],
            spans: Vec::new(),
        }
    }

    pub fn get(&self, call: Call) -> &CallStats {
        &self.stats[call as usize]
    }

    fn record(&mut self, call: Call, start: Instant, end: Instant, alloc: AllocCount) {
        let ns = end.duration_since(start).as_nanos();
        let stats = &mut self.stats[call as usize];
        stats.ns.record(ns as u64);
        stats.total_ns += ns;
        stats.alloc += alloc;
        if !call.per_op() {
            self.spans.push(Span {
                call,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
    }
}

/// Forwards to the wrapped store; see the module documentation.
pub struct Instrumented {
    inner: Box<dyn DistributedStore>,
    load_end: Option<(Instant, AllocCount)>,
    /// A `RefCell` because `snap_state` and `plan_target` take `&self`.
    trace: Option<RefCell<CallTrace>>,
}

/// Runs `f`, timing it as `call` when a trace is present.
fn timed<R>(trace: &Option<RefCell<CallTrace>>, call: Call, f: impl FnOnce() -> R) -> R {
    let Some(cell) = trace else {
        return f();
    };
    let alloc_before = alloc::snapshot();
    let start = Instant::now();
    let result = f();
    let end = Instant::now();
    let allocated = alloc::snapshot() - alloc_before;
    cell.borrow_mut().record(call, start, end, allocated);
    result
}

impl Instrumented {
    /// Wraps `inner`; with `trace_origin` set, every call is timed and
    /// spans are stamped relative to that instant.
    pub fn new(inner: Box<dyn DistributedStore>, trace_origin: Option<Instant>) -> Instrumented {
        Instrumented {
            inner,
            load_end: None,
            trace: trace_origin.map(|origin| RefCell::new(CallTrace::new(origin))),
        }
    }

    /// The host instant `finish_load` returned, and the calling thread's
    /// allocation totals then; `None` before the load phase ends.
    pub fn load_end(&self) -> Option<(Instant, AllocCount)> {
        self.load_end
    }

    /// The recorded trace, when the decorator was built traced.
    pub fn into_trace(self) -> Option<CallTrace> {
        self.trace.map(RefCell::into_inner)
    }
}

impl DistributedStore for Instrumented {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ctx(&self) -> &StoreCtx {
        self.inner.ctx()
    }

    fn load(&mut self, record: &Record) {
        let inner = &mut self.inner;
        timed(&self.trace, Call::Load, || inner.load(record));
    }

    fn finish_load(&mut self) {
        let inner = &mut self.inner;
        timed(&self.trace, Call::FinishLoad, || inner.finish_load());
        self.load_end = Some((Instant::now(), alloc::snapshot()));
    }

    fn plan_op(
        &mut self,
        client_id: u32,
        op: &Operation,
        engine: &mut Engine,
    ) -> (OpOutcome, Plan) {
        let inner = &mut self.inner;
        timed(&self.trace, Call::plan(op.kind()), || {
            inner.plan_op(client_id, op, engine)
        })
    }

    fn on_background(&mut self, job_id: u64, engine: &mut Engine) {
        let inner = &mut self.inner;
        timed(&self.trace, Call::Background, || {
            inner.on_background(job_id, engine)
        });
    }

    fn on_timed_event(&mut self, engine: &mut Engine) {
        let inner = &mut self.inner;
        timed(&self.trace, Call::TimedEvent, || {
            inner.on_timed_event(engine)
        });
    }

    fn on_fault(&mut self, event: &FaultEvent, engine: &mut Engine) {
        let inner = &mut self.inner;
        timed(&self.trace, Call::Fault, || inner.on_fault(event, engine));
    }

    fn plan_target(&self, op: &Operation) -> Option<usize> {
        timed(&self.trace, Call::PlanTarget, || self.inner.plan_target(op))
    }

    fn hedge_read_plan(
        &mut self,
        client_id: u32,
        op: &Operation,
        engine: &mut Engine,
    ) -> Option<Plan> {
        let inner = &mut self.inner;
        timed(&self.trace, Call::HedgePlan, || {
            inner.hedge_read_plan(client_id, op, engine)
        })
    }

    fn supports_scans(&self) -> bool {
        self.inner.supports_scans()
    }

    fn connection_cap(&self) -> Option<u32> {
        self.inner.connection_cap()
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        self.inner.disk_bytes_per_node()
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        timed(&self.trace, Call::Snap, || self.inner.snap_state(w));
    }

    fn restore_state(&mut self, r: &mut SnapReader, engine: &mut Engine) -> Result<(), SnapError> {
        let inner = &mut self.inner;
        timed(&self.trace, Call::Restore, || {
            inner.restore_state(r, engine)
        })
    }
}
