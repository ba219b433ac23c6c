//! Observation for [`Simulation`](super::Simulation), owned by
//! [`Observers`]: the user trace sink, the windowed [`MetricsRecorder`], the
//! count of `ObserveTick`s and the per-event-kind wall-time profile. Nothing
//! here draws randomness or changes simulation state, so attaching any
//! observer leaves a run bit-for-bit unchanged. Sampling the world reads
//! nodes, so the world does it, on demand, for the recorder.

use super::ckpt::CkptError;
use crate::frames::MacPayload;
use crate::observe::{MetricsRecorder, RunMeta, WorldSnapshot};
use crate::profile::EventProfile;
use crate::trace::{TraceEvent, TraceSink};
use dftmsn_radio::medium::TxOutcome;
use dftmsn_sim::snap::{SnapReader, SnapWriter};
use dftmsn_sim::time::{SimDuration, SimTime};
use std::time::Duration;

/// Everything that watches a run.
#[derive(Debug, Default)]
pub(super) struct Observers {
    /// The user trace sink, if any; it sees each event after `recorder`.
    trace: Option<Box<dyn TraceSink>>,
    /// The attached metrics recorder, if any: fed every trace event first,
    /// sampled at window boundaries and finalized with the run.
    recorder: Option<MetricsRecorder>,
    /// `ObserveTick`s handled so far. Subtracted from the queue's popped
    /// count in the report, so `events_processed` measures simulation work
    /// and an attached recorder leaves the report bit-for-bit unchanged.
    ticks: u64,
    /// Per-event-kind wall-time counters, filled only by
    /// [`run_profiled`](super::Simulation::run_profiled); never serialized.
    profile: Option<Box<EventProfile>>,
}

impl Observers {
    /// Attaches the builder's sink and recorder, handing the recorder the
    /// header metadata `meta` builds, and returns the first `ObserveTick`
    /// instant.
    pub(super) fn attach(
        &mut self,
        trace: Option<Box<dyn TraceSink>>,
        recorder: Option<MetricsRecorder>,
        meta: impl FnOnce() -> RunMeta,
        end: SimTime,
    ) -> Option<SimTime> {
        self.trace = trace;
        let recorder = self.recorder.insert(recorder?);
        recorder.begin_run(meta());
        next_boundary(recorder, SimTime::ZERO, end)
    }

    /// Feeds `event` to the recorder, then to the user sink.
    #[inline]
    pub(super) fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = &self.recorder {
            recorder.record(event.clone());
        }
        if let Some(sink) = self.trace.as_mut() {
            sink.record(event);
        }
    }

    /// Emits a finished frame's receptions and collisions, when anyone
    /// is listening.
    #[inline]
    pub(super) fn frame_ended(&mut self, now: SimTime, outcome: &TxOutcome<MacPayload>) {
        if self.recorder.is_none() && self.trace.is_none() {
            return;
        }
        let (from, tag) = (outcome.frame.src, outcome.frame.payload.tag());
        for &to in &outcome.delivered_to {
            self.emit(TraceEvent::FrameDelivered {
                at: now,
                from,
                to,
                tag,
            });
        }
        for &at_node in &outcome.collided_at {
            self.emit(TraceEvent::Collision { at: now, at_node });
        }
    }

    /// Counts an `ObserveTick` at `now`, hands the recorder the world
    /// `snapshot` returns, and returns the next tick instant up to `end`.
    pub(super) fn tick(
        &mut self,
        now: SimTime,
        end: SimTime,
        snapshot: impl FnOnce() -> WorldSnapshot,
    ) -> Option<SimTime> {
        self.ticks += 1;
        let recorder = self.recorder.as_ref()?;
        recorder.record_snapshot(now, snapshot());
        next_boundary(recorder, now, end)
    }

    /// Closes the recorder's trailing window at `at` on the world
    /// `snapshot` returns.
    pub(super) fn finish(&mut self, at: SimTime, snapshot: impl FnOnce() -> WorldSnapshot) {
        if let Some(recorder) = self.recorder.take() {
            recorder.finish(at, Some(snapshot()));
        }
    }

    /// `ObserveTick`s handled so far.
    pub(super) fn ticks(&self) -> u64 {
        self.ticks
    }

    pub(super) fn start_profile(&mut self, labels: &[&'static str]) {
        self.profile = Some(Box::new(EventProfile::new(labels)));
    }

    #[inline]
    pub(super) fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    pub(super) fn record_profile(&mut self, kind: usize, took: Duration) {
        if let Some(profile) = self.profile.as_mut() {
            profile.record(kind, took);
        }
    }

    pub(super) fn take_profile(&mut self) -> EventProfile {
        *self.profile.take().expect("profiling was started")
    }

    /// An upper bound on the bytes [`encode`](Self::encode) writes: the
    /// tick count, the option flag and the recorder's fixed fields, two
    /// window counters, a pending row and a short protocol label.
    pub(super) fn ckpt_len_bound(&self) -> usize {
        9 + if self.recorder.is_some() { 1024 } else { 0 }
    }

    /// Writes the tick count, then the recorder when one is attached.
    pub(super) fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.ticks);
        w.option(self.recorder.as_ref(), |w, recorder| recorder.encode(w));
    }

    /// Restores what [`encode`](Self::encode) wrote, checking the tick
    /// count against the `popped` events it is part of, and returns the
    /// recorder for the caller to re-attach its output.
    pub(super) fn decode(
        &mut self,
        r: &mut SnapReader,
        now: SimTime,
        popped: u64,
    ) -> Result<Option<MetricsRecorder>, CkptError> {
        self.ticks = r.u64()?;
        if self.ticks > popped {
            let ticks = self.ticks;
            return Err(CkptError::corrupt(format!(
                "{ticks} observer ticks among {popped} events processed"
            )));
        }
        self.recorder = r.option(|r| MetricsRecorder::decode(r, now))?;
        Ok(self.recorder.clone())
    }
}

/// The recorder's next window boundary after `now`, if at or before `end`.
fn next_boundary(recorder: &MetricsRecorder, now: SimTime, end: SimTime) -> Option<SimTime> {
    let window = SimDuration::from_secs_f64(recorder.window_secs());
    (!window.is_zero() && now + window <= end).then_some(now + window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_ticks_than_processed_events_are_rejected() {
        let mut observers = Observers::default();
        for _ in 0..3 {
            observers.tick(SimTime::ZERO, SimTime::ZERO, || unreachable!());
        }
        let mut w = SnapWriter::new();
        observers.encode(&mut w);
        let bytes = w.into_bytes();
        let decode = |popped| {
            Observers::default().decode(&mut SnapReader::new(&bytes), SimTime::ZERO, popped)
        };
        assert!(decode(3).is_ok());
        let err = decode(2).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err:?}");
        assert!(
            err.to_string().contains("3 observer ticks among 2 events"),
            "{err}"
        );
    }
}
