//! In-memory span recorder for the traced run.
//!
//! A span is opened around a call into one layer of the program and
//! records its name, the thread lane it ran on, its start and end, and
//! the span that was open on the same thread when it began (its parent).
//! Spans stay in per-thread buffers while the run is measured; each
//! thread hands its buffer over with [`flush`] when it is done, and
//! [`take`] collects everything at the end. With tracing disabled,
//! [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Thread lane: 0 is the thread whose spans block the result.
    pub lane: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Local {
    lane: u32,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { lane: 0, next: 0, stack: Vec::new(), spans: Vec::new() })
    };
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name this thread's lane; call first thing on a spawned thread.
pub fn set_lane(lane: u32) {
    LOCAL.with(|l| l.borrow_mut().lane = lane);
}

/// Open span guard; the span is recorded when it drops.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

/// Open a span named `name` on this thread, or do nothing when tracing
/// is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        // Lane in the high bits keeps ids unique across threads.
        let id = (u64::from(l.lane) << 40) | l.next;
        l.next += 1;
        let parent = l.stack.last().copied();
        l.stack.push(id);
        Some(Guard {
            id,
            parent,
            name,
            start_ns: now_ns(),
        })
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            let lane = l.lane;
            l.spans.push(Span {
                id: self.id,
                parent: self.parent,
                lane,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Hand this thread's finished spans to the shared sink.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    SINK.lock()
        .expect("a thread panicked while flushing spans")
        .extend(spans);
}

/// Every flushed span, plus the calling thread's own.
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(&mut *SINK.lock().expect("a thread panicked while flushing spans"))
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Indexed like
/// `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Summed duration and summed self time per span name, over `lane` only
/// or over every lane.
pub fn by_name(spans: &[Span], lane: Option<u32>) -> HashMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if lane.is_none_or(|l| l == s.lane) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += own;
        }
    }
    out
}

/// One span per line: `lane id parent name start_ns end_ns`.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "lane\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{parent}\t{}\t{}\t{}",
            s.lane, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            lane: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 30),
            sp(3, Some(1), 50, 90),
            sp(4, Some(3), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        // Self times of a properly nested tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children on other threads may overlap each other and spill
        // past the parent; only their union inside the parent counts.
        let spans = [
            sp(1, None, 100, 200),
            sp(2, Some(1), 110, 150),
            sp(3, Some(1), 140, 160),
            sp(4, Some(1), 190, 260),
            sp(5, Some(1), 50, 105),
        ];
        // Covered: [100,105) + [110,160) + [190,200) = 65.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn orphans_and_leaves() {
        let spans = [sp(7, Some(99), 5, 9), sp(8, None, 0, 0)];
        assert_eq!(self_times(&spans), vec![4, 0]);
    }

    #[test]
    fn recorder_nests_on_one_thread() {
        // The only test that touches the global recorder.
        enable();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let names = by_name(&spans, Some(0));
        assert_eq!(names["outer"].0, outer.dur_ns());
        assert_eq!(names["outer"].1, outer.dur_ns() - inner.dur_ns());
    }
}
