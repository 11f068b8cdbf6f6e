//! In-memory spans around the benchmark's own calls into each crate, and
//! the self-time ledger they add up to.
//!
//! A span belongs to one layer (a workspace crate, or `bench` for the
//! benchmark's own checking). Its *share* is the fraction of the pass's
//! wall clock one thread of it stands for: 1 on the driving thread, and
//! `share / workers` for units a pool spreads over `workers` threads. A
//! span's self time is `share × duration` minus the same for its
//! children, so the self times of a span tree sum to its root's duration
//! and the pass wall clock splits exactly into layer self times plus the
//! time no span covers (`other`). For a pool span that remainder is the
//! workers' idle time, which is charged to `sim-exec`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span attaches: its parent and the share it inherits.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    parent: Option<usize>,
    share: f64,
}

impl Scope {
    /// The scope of a unit that a pool of `workers` threads runs inside
    /// this scope's span.
    pub fn parallel(self, workers: usize) -> Scope {
        Scope {
            share: self.share / workers.max(1) as f64,
            ..self
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    parent: Option<usize>,
    share: f64,
    secs: f64,
}

/// Span recorder. When off, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The scope of top-level spans.
    pub fn root(&self) -> Scope {
        Scope {
            parent: None,
            share: 1.0,
        }
    }

    /// Run `f` inside a span of `layer`, handing it the scope for child
    /// spans.
    pub fn span<T>(&self, scope: Scope, layer: &'static str, f: impl FnOnce(Scope) -> T) -> T {
        if !self.on {
            return f(scope);
        }
        let id = self.push(Span {
            layer,
            parent: scope.parent,
            share: scope.share,
            secs: 0.0,
        });
        let t0 = Instant::now();
        let out = f(Scope {
            parent: Some(id),
            share: scope.share,
        });
        let secs = t0.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned")[id].secs = secs;
        out
    }

    /// Record a child span of `layer` that lasted `secs` inside `scope`'s
    /// span but was timed elsewhere (for example by a child process).
    pub fn record(&self, scope: Scope, layer: &'static str, secs: f64) {
        if self.on {
            self.push(Span {
                layer,
                parent: scope.parent,
                share: scope.share,
                secs,
            });
        }
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Drain the recorded spans into a ledger for a pass that took `wall`
    /// seconds.
    pub fn take_ledger(&self, wall: f64) -> Ledger {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span list poisoned"));
        let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut covered = 0.0;
        for s in &spans {
            let weighted = s.share * s.secs;
            *self_s.entry(s.layer).or_default() += weighted;
            match s.parent {
                Some(p) => *self_s.entry(spans[p].layer).or_default() -= weighted,
                None => covered += weighted,
            }
        }
        Ledger {
            wall,
            self_s,
            other: wall - covered,
        }
    }
}

/// One pass's wall clock split into layer self times plus the rest.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall-clock seconds of the pass.
    pub wall: f64,
    /// Self seconds per layer.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds no span covers.
    pub other: f64,
}

impl Ledger {
    /// Fold another pass in.
    pub fn add(&mut self, o: &Ledger) {
        self.wall += o.wall;
        self.other += o.other;
        for (k, v) in &o.self_s {
            *self.self_s.entry(k).or_default() += v;
        }
    }

    /// `|Σ self + other − wall|`: zero up to rounding when the spans
    /// nest as recorded.
    pub fn residual(&self) -> f64 {
        (self.self_s.values().sum::<f64>() + self.other - self.wall).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_children_split_the_parent_without_leaking_time() {
        let t = Tracer::new(true);
        let root = t.root();
        t.span(root, "sim-exec", |pool| {
            let unit = pool.parallel(2);
            t.record(unit, "sim-pipeline", 0.0);
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        t.record(root, "bench", 0.001);
        let l = t.take_ledger(0.010);
        assert!(l.residual() < 1e-12);
        assert!(l.self_s["sim-exec"] > 0.004);
        assert!(l.other < 0.005);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(t.root(), "bench", |_| 7), 7);
        let l = t.take_ledger(1.0);
        assert!(l.self_s.is_empty());
        assert_eq!(l.other, 1.0);
    }
}
