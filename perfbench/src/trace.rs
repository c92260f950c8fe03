//! In-memory span recording and the self-time breakdown derived from it.
//!
//! Spans are recorded at layer boundaries from the benchmark's own code:
//! around its own steps ([`Recorder::step`]) and, through the system
//! proxy, around every working call into a mounted system
//! ([`Recorder::span`]). Each span carries its name (a [`Kind`] plus the
//! system it belongs to), start, end, parent span and query id. Spans stay
//! in memory until the run ends.
//!
//! Self time is a wall-clock share. A span's self intervals are its own
//! interval minus the union of its children's intervals, children on other
//! threads included. At every instant the active self intervals split the
//! instant equally, so the per-layer self times add up to the wall time
//! covered by any span, and the rest of the run is reported as
//! unattributed.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer boundary a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Workload generation.
    Generate,
    /// Construction of one system's overlay(s).
    Build,
    /// `place_all`: directory placement and histogram training.
    Place,
    /// The benchmark's own round loop around executor or churn calls.
    Round,
    /// One executor call (point/range) or one system's churn run.
    Exec,
    /// A sequential or adaptive plan over single-attribute sub-queries.
    Plan,
    /// One query call into a system.
    Query,
    /// `join_physical`.
    Join,
    /// `leave_physical` or `fail_physical`.
    Depart,
    /// `stabilize`.
    Stabilize,
    /// `clone_box`.
    Snapshot,
}

impl Kind {
    fn index(self) -> usize {
        self as usize
    }

    /// Short name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Generate => "generate",
            Kind::Build => "build",
            Kind::Place => "place",
            Kind::Round => "round",
            Kind::Exec => "exec",
            Kind::Plan => "plan",
            Kind::Query => "query",
            Kind::Join => "join",
            Kind::Depart => "depart",
            Kind::Stabilize => "stabilize",
            Kind::Snapshot => "snapshot",
        }
    }
}

/// Span owner when the span belongs to no single system.
pub const NO_SYS: u8 = 4;
/// System slots per kind: the four systems plus [`NO_SYS`].
const SLOTS: usize = 5;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id, dense from 1.
    pub id: u64,
    /// Id of the span that caused this one (0: none).
    pub parent: u64,
    /// Query id shared by the spans of one query (0: not a query).
    pub query: u64,
    /// Layer boundary.
    pub kind: Kind,
    /// System index in `adapter::SYSTEMS` order, or [`NO_SYS`].
    pub sys: u8,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

thread_local! {
    /// Open proxy spans of this thread, innermost last: `(span id, query id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of one traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    next_query: AtomicU64,
    /// Innermost open step span. Step spans open on the main thread
    /// only; a proxy span opened on a thread with no open proxy span
    /// (an executor worker) takes it as its parent.
    ambient: AtomicU64,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 20)),
            next_id: AtomicU64::new(1),
            next_query: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a step span (benchmark code, main thread). It nests under
    /// the innermost open step span.
    pub fn step(&self, kind: Kind, sys: u8) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.ambient.swap(id, Ordering::Relaxed);
        Guard { rec: self, id, parent, query: 0, kind, sys, start: self.now(), step: true }
    }

    /// Open a proxy span around one call into a system. It nests under the
    /// innermost proxy span of this thread, else under the innermost
    /// step span. A query or plan span with no enclosing proxy span
    /// starts a new query id.
    pub fn span(&self, kind: Kind, sys: u8) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, query) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, query) = match s.last() {
                Some(&(p, q)) => (p, q),
                None => {
                    let q = if matches!(kind, Kind::Plan | Kind::Query) {
                        self.next_query.fetch_add(1, Ordering::Relaxed)
                    } else {
                        0
                    };
                    (self.ambient.load(Ordering::Relaxed), q)
                }
            };
            s.push((id, query));
            (parent, query)
        });
        Guard { rec: self, id, parent, query, kind, sys, start: self.now(), step: false }
    }

    /// Take every recorded span, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap_or_else(|e| e.into_inner()));
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// An open span; dropping it records the span.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    query: u64,
    kind: Kind,
    sys: u8,
    start: u64,
    step: bool,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now();
        if self.step {
            self.rec.ambient.store(self.parent, Ordering::Relaxed);
        } else {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            query: self.query,
            kind: self.kind,
            sys: self.sys,
            start: self.start,
            end,
        };
        // A poisoned lock still holds a valid span list: every push is whole.
        self.rec.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Open a span on an optional recorder.
pub fn span(rec: Option<&Recorder>, kind: Kind, sys: u8) -> Option<Guard<'_>> {
    rec.map(|r| r.span(kind, sys))
}

/// Open a step span on an optional recorder.
pub fn step(rec: Option<&Recorder>, kind: Kind, sys: u8) -> Option<Guard<'_>> {
    rec.map(|r| r.step(kind, sys))
}

/// Self times and latencies derived from one run's spans.
pub struct Breakdown {
    /// Self seconds per `(kind, system slot)`.
    self_s: [[f64; SLOTS]; 11],
    /// Wall seconds covered by at least one span.
    pub covered_s: f64,
    /// Per-system durations of top-level query spans, in nanoseconds.
    pub latencies_ns: [Vec<u64>; 4],
}

impl Breakdown {
    /// Self seconds of one layer on one system slot.
    pub fn self_s(&self, kind: Kind, sys: u8) -> f64 {
        self.self_s[kind.index()][usize::from(sys)]
    }

    /// Sum of every layer's self seconds.
    pub fn total_self_s(&self) -> f64 {
        self.self_s.iter().flatten().sum()
    }
}

/// Derive self times and per-query latencies from `spans` (ordered by id,
/// ids dense from 1).
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let pos = |id: u64| usize::try_from(id).ok().and_then(|i| i.checked_sub(1));
    // Children grouped by parent, each group sorted by start.
    let mut order: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent != 0).collect();
    order.sort_unstable_by_key(|&i| (spans[i].parent, spans[i].start));

    // Self intervals: each span's interval minus the union of its children.
    let mut pieces: Vec<(u64, u64, usize)> = Vec::with_capacity(spans.len() * 2);
    let mut k = 0;
    for (i, sp) in spans.iter().enumerate() {
        let key = sp.kind.index() * SLOTS + usize::from(sp.sys);
        let mut cursor = sp.start;
        while k < order.len() && spans[order[k]].parent < sp.id {
            k += 1;
        }
        while k < order.len() && spans[order[k]].parent == sp.id {
            let c = &spans[order[k]];
            let (a, b) = (c.start.max(sp.start), c.end.min(sp.end));
            if a > cursor {
                pieces.push((cursor, a, key));
            }
            cursor = cursor.max(b);
            k += 1;
        }
        if sp.end > cursor {
            pieces.push((cursor, sp.end, key));
        }
        debug_assert_eq!(pos(sp.id), Some(i), "span ids are dense");
    }

    // Sweep: every instant is split equally among the active self pieces.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(pieces.len() * 2);
    for &(a, b, key) in &pieces {
        events.push((a, true, key));
        events.push((b, false, key));
    }
    events.sort_unstable_by_key(|&(t, open, _)| (t, open));
    let mut active = [0u32; 11 * SLOTS];
    let mut live = 0u32;
    let mut acc = [0f64; 11 * SLOTS];
    let mut covered = 0u64;
    let mut last = 0u64;
    for (t, open, key) in events {
        if live > 0 && t > last {
            let dt = (t - last) as f64;
            covered += t - last;
            for (slot, &n) in active.iter().enumerate() {
                if n > 0 {
                    acc[slot] += dt * f64::from(n) / f64::from(live);
                }
            }
        }
        last = t;
        if open {
            active[key] += 1;
            live += 1;
        } else {
            active[key] -= 1;
            live -= 1;
        }
    }
    let mut self_s = [[0f64; SLOTS]; 11];
    for (slot, ns) in acc.iter().enumerate() {
        self_s[slot / SLOTS][slot % SLOTS] = ns / 1e9;
    }

    // Latency of a query: its top-level span, i.e. a plan or query span
    // whose parent is not itself a query-layer span.
    let mut latencies_ns: [Vec<u64>; 4] = Default::default();
    for sp in spans {
        if !matches!(sp.kind, Kind::Plan | Kind::Query) || usize::from(sp.sys) >= 4 {
            continue;
        }
        let nested = pos(sp.parent)
            .and_then(|p| spans.get(p))
            .is_some_and(|p| matches!(p.kind, Kind::Plan | Kind::Query));
        if !nested {
            latencies_ns[usize::from(sp.sys)].push(sp.end - sp.start);
        }
    }
    Breakdown { self_s, covered_s: covered as f64 / 1e9, latencies_ns }
}

/// Write spans as CSV (`id,parent,query,kind,sys,start_ns,end_ns`).
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,query,kind,sys,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.query,
            s.kind.name(),
            s.sys,
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, kind: Kind, sys: u8, start: u64, end: u64) -> Span {
        Span { id, parent, query: 0, kind, sys, start, end }
    }

    #[test]
    fn nested_spans_split_into_self_times() {
        let spans = [
            sp(1, 0, Kind::Exec, 0, 0, 100),
            sp(2, 1, Kind::Plan, 0, 10, 60),
            sp(3, 2, Kind::Query, 0, 20, 50),
        ];
        let b = breakdown(&spans);
        assert!((b.self_s(Kind::Exec, 0) - 50e-9).abs() < 1e-15);
        assert!((b.self_s(Kind::Plan, 0) - 20e-9).abs() < 1e-15);
        assert!((b.self_s(Kind::Query, 0) - 30e-9).abs() < 1e-15);
        assert!((b.covered_s - 100e-9).abs() < 1e-15);
        assert_eq!(b.latencies_ns[0], vec![50]);
    }

    #[test]
    fn concurrent_children_share_the_wall_clock() {
        // Two workers under one executor span: [0,40) and [20,60) in queries,
        // the executor itself uncovered only on [60,80).
        let spans = [
            sp(1, 0, Kind::Exec, 1, 0, 80),
            sp(2, 1, Kind::Query, 1, 0, 40),
            sp(3, 1, Kind::Plan, 2, 20, 60),
        ];
        let b = breakdown(&spans);
        let total = b.total_self_s();
        assert!((total - 80e-9).abs() < 1e-15, "{total}");
        assert!((b.self_s(Kind::Exec, 1) - 20e-9).abs() < 1e-15);
        assert!((b.self_s(Kind::Query, 1) - 30e-9).abs() < 1e-15);
        assert!((b.self_s(Kind::Plan, 2) - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn gaps_between_roots_stay_unattributed() {
        let spans = [sp(1, 0, Kind::Build, 0, 0, 10), sp(2, 0, Kind::Place, 0, 30, 40)];
        let b = breakdown(&spans);
        assert!((b.covered_s - 20e-9).abs() < 1e-15);
    }
}
