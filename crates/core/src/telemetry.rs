//! Time-resolved AVF telemetry with exact window accounting.
//!
//! Program AVF is not stationary — it moves with program phases, and that
//! phase behavior is itself predictable (Fu, Poe, Li, Fortes, MASCOTS
//! 2006, the companion work the paper builds on). The
//! [`TelemetryRecorder`] keeps the **raw banked deltas** of every window as
//! `u128` integers. That makes the central invariant checkable bit-exactly:
//!
//! > the per-window ACE-bit-cycle deltas, summed over all emitted windows,
//! > equal the engine's cumulative banked totals — no double-count, no gap.
//!
//! Two mechanisms guarantee it:
//!
//! 1. [`TelemetryRecorder::resync`] *discards* any windows recorded before
//!    the re-baseline (a measurement window opening resets the engine, so
//!    pre-reset windows would not sum to the post-reset totals);
//! 2. [`TelemetryRecorder::flush`] closes the final partial window, and is
//!    meant to be called *after* end-of-run finalization banking (register
//!    last-reads, cache evictions), so late banks land in the tail window
//!    instead of vanishing.
//!
//! Per-window AVF floats are derived from the integers on demand; summing
//! the integer deltas and dividing once reproduces the aggregate report AVF
//! to the last bit.

use crate::engine::AvfEngine;
use crate::structure::StructureId;

/// One closed telemetry window: raw banked deltas plus derived rates.
#[derive(Debug, Clone, PartialEq)]
pub struct AvfWindow {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// One past the last cycle of the window.
    pub end_cycle: u64,
    /// ACE-bit-cycles banked during this window, per structure in
    /// [`StructureId::ALL`] order. Summing a structure's column across all
    /// windows reproduces the engine's cumulative total exactly.
    pub ace_bit_cycles: Vec<u128>,
    /// Occupied-bit-cycles banked during this window, per structure.
    pub occupied_bit_cycles: Vec<u128>,
    /// Per-structure AVF over this window (derived). Classification is
    /// banked when an entry *ends* its residency, so a long-lived entry
    /// counts in the window where it ends: phase edges smear by about one
    /// residency time, and a short window's value can exceed 1.0.
    pub avf: Vec<f64>,
    /// Per-structure occupancy fraction over this window (derived).
    pub occupancy: Vec<f64>,
}

impl AvfWindow {
    /// The window AVF of one structure.
    pub fn structure_avf(&self, s: StructureId) -> f64 {
        self.avf[s.index()]
    }

    /// The window occupancy of one structure.
    pub fn structure_occupancy(&self, s: StructureId) -> f64 {
        self.occupancy[s.index()]
    }

    /// Window length in cycles.
    pub fn span(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Records [`AvfWindow`]s every `window` cycles from an [`AvfEngine`].
#[derive(Debug, Clone)]
pub struct TelemetryRecorder {
    window: u64,
    last_cycle: u64,
    last_ace: Vec<u128>,
    last_occupied: Vec<u128>,
    windows: Vec<AvfWindow>,
}

impl TelemetryRecorder {
    /// A recorder emitting a window every `window` cycles.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> TelemetryRecorder {
        assert!(window > 0, "telemetry window must be nonzero");
        let n = StructureId::ALL.len();
        TelemetryRecorder {
            window,
            last_cycle: 0,
            last_ace: vec![0; n],
            last_occupied: vec![0; n],
            windows: Vec::new(),
        }
    }

    /// The window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Close the interval `[self.last_cycle, cycle)` into a window.
    fn close_window(&mut self, engine: &AvfEngine, cycle: u64) {
        let span = cycle - self.last_cycle;
        let n = StructureId::ALL.len();
        let mut ace = Vec::with_capacity(n);
        let mut occupied = Vec::with_capacity(n);
        let mut avf = Vec::with_capacity(n);
        let mut occupancy = Vec::with_capacity(n);
        for &s in &StructureId::ALL {
            let t = engine.tracker(s);
            let i = s.index();
            let now_ace = t.total_ace_bit_cycles();
            let now_occ = t.total_occupied_bit_cycles();
            // The engine's accumulators are monotone between resyncs, so
            // plain subtraction is exact; debug-assert the precondition.
            debug_assert!(now_ace >= self.last_ace[i] && now_occ >= self.last_occupied[i]);
            let d_ace = now_ace - self.last_ace[i];
            let d_occ = now_occ - self.last_occupied[i];
            self.last_ace[i] = now_ace;
            self.last_occupied[i] = now_occ;
            let denom = t.total_bits() as u128 * span as u128;
            let (a, o) = if denom == 0 {
                (0.0, 0.0)
            } else {
                (d_ace as f64 / denom as f64, d_occ as f64 / denom as f64)
            };
            ace.push(d_ace);
            occupied.push(d_occ);
            avf.push(a);
            occupancy.push(o);
        }
        self.windows.push(AvfWindow {
            start_cycle: self.last_cycle,
            end_cycle: cycle,
            ace_bit_cycles: ace,
            occupied_bit_cycles: occupied,
            avf,
            occupancy,
        });
        self.last_cycle = cycle;
    }

    /// Offer the current cycle; closes a window whenever a full window has
    /// elapsed. Call once per cycle (a single compare when no boundary is
    /// hit).
    #[inline]
    pub fn tick(&mut self, engine: &AvfEngine, cycle: u64) {
        if cycle < self.last_cycle + self.window {
            return;
        }
        self.close_window(engine, cycle);
    }

    /// Catch up across a jump of the clock to `to`: close every window
    /// boundary in `(last boundary, to]`, exactly as per-cycle [`tick`]s
    /// would have.
    ///
    /// Intended for event-driven callers that skip quiescent spans (see
    /// `SmtCore::step_fast_bounded`): nothing is banked while the clock is
    /// skipping, so each intermediate window closes over the engine state
    /// the slow path would have seen at that same boundary — the recorded
    /// series is bit-identical to the per-cycle one.
    ///
    /// [`tick`]: TelemetryRecorder::tick
    pub fn tick_span(&mut self, engine: &AvfEngine, to: u64) {
        while self.last_cycle + self.window <= to {
            let boundary = self.last_cycle + self.window;
            self.close_window(engine, boundary);
        }
    }

    /// Re-baseline on the engine's current accumulators and cycle,
    /// **discarding** windows recorded so far. Call after
    /// [`AvfEngine::reset`] (when a measurement window opens): the engine's
    /// cumulative totals restart from zero there, so only post-resync
    /// windows can sum to them.
    pub fn resync(&mut self, engine: &AvfEngine, cycle: u64) {
        for &s in &StructureId::ALL {
            let i = s.index();
            let t = engine.tracker(s);
            self.last_ace[i] = t.total_ace_bit_cycles();
            self.last_occupied[i] = t.total_occupied_bit_cycles();
        }
        self.last_cycle = cycle;
        self.windows.clear();
    }

    /// Close the final (possibly partial) window at `cycle`. Call after
    /// end-of-run finalization banking so late banks are captured; a no-op
    /// when no cycles have elapsed since the last boundary.
    pub fn flush(&mut self, engine: &AvfEngine, cycle: u64) {
        if cycle > self.last_cycle {
            self.close_window(engine, cycle);
        }
    }

    /// The windows recorded so far.
    pub fn windows(&self) -> &[AvfWindow] {
        &self.windows
    }

    /// Consume the recorder, returning the recorded windows.
    pub fn into_windows(self) -> Vec<AvfWindow> {
        self.windows
    }
}

/// Sum one structure's raw ACE-bit-cycle deltas across `windows`.
pub fn window_ace_sum(windows: &[AvfWindow], s: StructureId) -> u128 {
    windows.iter().map(|w| w.ace_bit_cycles[s.index()]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::ThreadId;

    #[test]
    fn window_sums_equal_engine_totals_exactly() {
        let mut e = AvfEngine::new(2);
        e.set_total_bits(StructureId::Iq, 2048);
        e.set_total_bits(StructureId::Rob, 8192);
        let mut rec = TelemetryRecorder::new(50);
        // Irregular banking across window boundaries, plus a partial tail.
        for c in 0..=173u64 {
            if c % 3 == 0 {
                e.bank(StructureId::Iq, ThreadId(0), 17, 4);
            }
            if c % 7 == 0 {
                e.bank_split(StructureId::Rob, ThreadId(1), 5, 96, 11);
            }
            rec.tick(&e, c);
        }
        rec.flush(&e, 173);
        for s in [StructureId::Iq, StructureId::Rob] {
            assert_eq!(
                window_ace_sum(rec.windows(), s),
                e.tracker(s).total_ace_bit_cycles(),
                "{s}"
            );
            let occ: u128 = rec
                .windows()
                .iter()
                .map(|w| w.occupied_bit_cycles[s.index()])
                .sum();
            assert_eq!(occ, e.tracker(s).total_occupied_bit_cycles(), "{s}");
        }
        // Windows tile [0, 173) without gap or overlap.
        let mut expect_start = 0;
        for w in rec.windows() {
            assert_eq!(w.start_cycle, expect_start);
            expect_start = w.end_cycle;
        }
        assert_eq!(expect_start, 173);
    }

    #[test]
    fn resync_discards_pre_reset_windows() {
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::Iq, 100);
        let mut rec = TelemetryRecorder::new(10);
        e.bank(StructureId::Iq, ThreadId(0), 50, 10);
        rec.tick(&e, 10);
        assert_eq!(rec.windows().len(), 1);
        // Measurement window opens: engine resets, recorder resyncs.
        e.reset();
        rec.resync(&e, 10);
        assert!(rec.windows().is_empty());
        e.bank(StructureId::Iq, ThreadId(0), 25, 10);
        rec.tick(&e, 20);
        assert_eq!(
            window_ace_sum(rec.windows(), StructureId::Iq),
            e.tracker(StructureId::Iq).total_ace_bit_cycles()
        );
    }

    #[test]
    fn tick_span_matches_per_cycle_ticks() {
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::Iq, 512);
        // Bank some history, then advance both recorders identically to
        // cycle 40 before the quiescent span begins.
        let mut per_cycle = TelemetryRecorder::new(25);
        let mut spanned = TelemetryRecorder::new(25);
        e.bank(StructureId::Iq, ThreadId(0), 31, 9);
        for c in 1..=40u64 {
            per_cycle.tick(&e, c);
            spanned.tick(&e, c);
        }
        // Quiescent span: nothing banked while the clock jumps 40 → 173.
        for c in 41..=173u64 {
            per_cycle.tick(&e, c);
        }
        spanned.tick_span(&e, 173);
        assert_eq!(per_cycle.windows(), spanned.windows());
        // Both resume identically after the span.
        e.bank(StructureId::Iq, ThreadId(0), 7, 3);
        per_cycle.tick(&e, 175);
        spanned.tick(&e, 175);
        per_cycle.flush(&e, 180);
        spanned.flush(&e, 180);
        assert_eq!(per_cycle.windows(), spanned.windows());
    }

    #[test]
    fn tick_span_short_of_a_boundary_is_a_noop() {
        let e = AvfEngine::new(1);
        let mut rec = TelemetryRecorder::new(100);
        rec.tick_span(&e, 99);
        assert!(rec.windows().is_empty());
        rec.tick_span(&e, 100);
        assert_eq!(rec.windows().len(), 1);
    }

    #[test]
    fn flush_is_noop_on_boundary() {
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::Iq, 100);
        let mut rec = TelemetryRecorder::new(10);
        rec.tick(&e, 10);
        rec.flush(&e, 10);
        assert_eq!(rec.windows().len(), 1);
    }

    #[test]
    fn derived_avf_matches_integer_ratio() {
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::Iq, 128);
        let mut rec = TelemetryRecorder::new(20);
        e.bank(StructureId::Iq, ThreadId(0), 64, 10);
        rec.tick(&e, 20);
        let w = &rec.windows()[0];
        let expect = (64u128 * 10) as f64 / (128u128 * 20) as f64;
        assert_eq!(w.structure_avf(StructureId::Iq), expect);
        assert_eq!(w.structure_occupancy(StructureId::Iq), expect);
        assert_eq!(w.span(), 20);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_window_rejected() {
        let _ = TelemetryRecorder::new(0);
    }
}
