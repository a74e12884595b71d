//! Spans recorded by the benchmark around its calls into each layer.
//! The program itself is not instrumented: a span covers exactly one
//! call to a public entry point (or a group of them), made from these
//! files. Spans stay in memory and are written at exit in the Chrome
//! trace-event format that `hero_gpu_sim::trace` uses for the modeled GPU
//! timeline, so both can be opened side by side.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub thread: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            id,
            parent,
            request,
            thread: thread_id(),
            start,
            end,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        let mut d: Vec<Duration> = self
            .spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect();
        d.sort();
        d
    }
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Closure of one request: the self times of its non-root spans summed,
/// over the root span's duration. 1.0 means the layers account for the
/// whole end-to-end time; the rest is the benchmark's own glue.
pub fn closure(spans: &[Span], request: u64) -> f64 {
    let mine: Vec<Span> = spans
        .iter()
        .filter(|s| s.request == request)
        .cloned()
        .collect();
    let root = mine
        .iter()
        .find(|s| s.parent.is_none())
        .expect("every traced request has a root span");
    let selfs = self_times(&mine);
    let layers: Duration = mine
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| selfs[&s.id])
        .sum();
    layers.as_secs_f64() / root.duration().as_secs_f64()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
/// timestamps in microseconds, one track per benchmark thread.
pub fn chrome_json(process: &str, spans: &[Span]) -> String {
    let mut events = vec![format!(
        r#"{{"name":"process_name","ph":"M","pid":1,"args":{{"name":"{}"}}}}"#,
        json_escape(process)
    )];
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            r#"{{"name":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"id":{},"parent":{},"request":{}}}}}"#,
            json_escape(s.name),
            s.thread,
            s.start.as_secs_f64() * 1e6,
            s.duration().as_secs_f64() * 1e6,
            s.id,
            parent,
            s.request,
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            request: 1,
            thread: 1,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], Duration::from_micros(50));
        assert_eq!(selfs[&2], Duration::from_micros(20));
        assert_eq!(selfs[&4], Duration::from_micros(10));
        // Children self times: 20 + 30 + 10 = 60 of the root's 100.
        assert!((closure(&spans, 1) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn chrome_events_carry_ids() {
        let tracer = Tracer::new();
        tracer.span("root", None, 7, |id| {
            tracer.span("child", Some(id), 7, |_| ())
        });
        let json = chrome_json("p", &tracer.spans());
        assert_eq!(json.matches(r#""ph":"X""#).count(), 2);
        assert!(json.contains(r#""request":7"#));
        assert!(json.contains(r#""parent":null"#));
    }
}
