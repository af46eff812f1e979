//! In-memory host-time spans and counts for the traced run.
//!
//! The harness wraps every call it makes into a layer's public API in a
//! span, keeps all spans in memory, and writes them out once at exit. A
//! layer's *self time* is its spans' duration minus whatever part of that
//! interval their child spans cover, so nested calls are charged once.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in recording order.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// The crate whose public API the call entered (`sim`, `am`, ...), or
    /// `harness` for the benchmark's own grouping spans.
    pub layer: &'static str,
    /// The workload the call belongs to (`probe` for the layer probes).
    pub workload: String,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    counts: BTreeMap<String, u64>,
}

/// Thread-safe span and count recorder (`suite_par` records from two
/// workers at once).
pub struct Tracer {
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a panicking span body poisons the tracer")
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn record<R>(
        &self,
        workload: String,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut g = self.lock();
            g.spans.push(Span {
                name: name.to_string(),
                layer,
                workload,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            g.spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock().spans[id].end_ns = end_ns;
        out
    }

    /// Times `f` as a top-level span of `workload`.
    pub fn root<R>(
        &self,
        workload: &str,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.record(workload.to_string(), None, layer, name, f)
    }

    /// Times `f` as a span caused by `parent`, in the parent's workload.
    pub fn child<R>(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let workload = self.lock().spans[parent].workload.clone();
        self.record(workload, Some(parent), layer, name, f)
    }

    /// Adds `n` to the named count.
    pub fn count(&self, name: &str, n: u64) {
        *self.lock().counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Ends recording and hands back everything recorded.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<String, u64>) {
        let inner = self
            .inner
            .into_inner()
            .expect("a panicking span body poisons the tracer");
        (inner.spans, inner.counts)
    }
}

/// Where a traced call hangs: the tracer and the span that caused it.
/// `None` when tracing is off.
pub type Scope<'a> = Option<(&'a Tracer, SpanId)>;

/// Times `f` as a child span of `scope` when tracing is on; otherwise just
/// runs it. `f` receives the scope its own calls hang from.
pub fn spanned<'a, R>(
    scope: Scope<'a>,
    layer: &'static str,
    name: &str,
    f: impl FnOnce(Scope<'a>) -> R,
) -> R {
    match scope {
        None => f(None),
        Some((t, parent)) => t.child(parent, layer, name, |id| f(Some((t, id)))),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children of parallel
/// workers may overlap; overlap is counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Calls and summed self time per layer, over the spans `include` keeps.
pub fn layer_table(
    spans: &[Span],
    include: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if !include(s) {
            continue;
        }
        let row = table.entry(s.layer).or_insert((0, 0));
        row.0 += 1;
        row.1 += self_ns;
    }
    table
}

/// Writes spans and counts as one JSON document. Names come from the
/// harness and the suite's app list, so they hold no character JSON would
/// need escaped.
pub fn write_json<W: Write>(
    w: &mut W,
    host_json: &str,
    spans: &[Span],
    counts: &BTreeMap<String, u64>,
) -> io::Result<()> {
    writeln!(w, "{{\"host\":{host_json},\n\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
            s.name, s.layer, s.workload, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "],\n\"counts\":{{")?;
    for (i, (name, n)) in counts.iter().enumerate() {
        let sep = if i + 1 < counts.len() { "," } else { "" };
        writeln!(w, "\"{name}\":{n}{sep}")?;
    }
    writeln!(w, "}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            layer,
            workload: "w".into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn parent_self_time_is_duration_minus_children() {
        let spans = [
            span("core", 0, 100, None),
            span("apps", 10, 30, Some(0)),
            span("apps", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span("core", 100, 200, None),
            span("apps", 110, 160, Some(0)),
            span("apps", 140, 180, Some(0)),
            span("apps", 190, 250, Some(0)),
        ];
        // Union of children inside the parent: [110,180] and [190,200].
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = [
            span("harness", 0, 100, None),
            span("core", 0, 80, Some(0)),
            span("apps", 20, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 40]);
        let table = layer_table(&spans, |_| true);
        assert!(!layer_table(&spans, |s| s.layer != "apps").contains_key("apps"));
        assert_eq!(table["core"], (1, 40));
        assert_eq!(table["apps"], (1, 40));
    }

    #[test]
    fn tracer_links_children_and_inherits_the_workload() {
        let t = Tracer::new();
        t.root("sweep_write", "harness", "pass", |p| {
            t.child(p, "core", "sweep_many", |_| t.count("runs", 2));
        });
        t.count("runs", 1);
        let (spans, counts) = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].workload, "sweep_write");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(counts["runs"], 3);
    }

    #[test]
    fn json_output_parses() {
        let t = Tracer::new();
        t.root("w", "sim", "kernel", |_| ());
        t.count("c", 4);
        let (spans, counts) = t.finish();
        let mut buf = Vec::new();
        write_json(&mut buf, "{\"nproc\":2}", &spans, &counts).unwrap();
        let v = nowlab_metrics::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(v.get("spans").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("counts").unwrap().get("c").unwrap().as_u64(), Some(4));
    }
}
