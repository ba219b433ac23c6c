//! The traced pass's accounting: `EventProfile` labels mapped onto the
//! repository's layers, the span record, and the clock calibration.
//!
//! A traced span is split exactly, in integer nanoseconds, into handler
//! self time per layer, the profiler's own clock reads, and a residual
//! (queue pop, dispatch, report finalisation and the profiler's
//! bookkeeping): `Σ layers + clock + residual = span`.

use dftmsn_core::profile::EventProfile;
use dftmsn_metrics::json::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every `EventProfile` label with its layer and the part of the layer
/// it is reported under. A label missing here is an error, so a new event
/// kind cannot slip into the residual unnoticed.
const LAYER_OF: [(&str, &str, &str); 14] = [
    ("MobilityTick", "core.mobility", "tick"),
    ("DataGen", "core.policy", "datagen"),
    ("MetricTimeout", "core.policy", "timeout"),
    ("TxEnd", "radio.medium", "txend"),
    ("Timer:WakeUp", "core.mac", "wakeup"),
    ("Timer:ListenDone", "core.mac", "listen"),
    ("Timer:CtsSlot", "core.mac", "handshake"),
    ("Timer:CtsWindowEnd", "core.mac", "handshake"),
    ("Timer:AckSlot", "core.mac", "handshake"),
    ("Timer:AckWindowEnd", "core.mac", "handshake"),
    ("Timer:Guard", "core.mac", "guard"),
    ("Timer:stale", "core.world", "stale"),
    ("Fault", "core.faults", "fault"),
    ("ObserveTick", "core.observe", "tick"),
];

/// The layers handler time is attributed to, in report order.
pub(crate) const LAYERS: [&str; 7] = [
    "core.mobility",
    "core.policy",
    "radio.medium",
    "core.mac",
    "core.world",
    "core.faults",
    "core.observe",
];

/// `(layer, part)` of an `EventProfile` label.
fn layer_of(label: &str) -> Result<(&'static str, &'static str), String> {
    LAYER_OF
        .iter()
        .find(|(l, _, _)| *l == label)
        .map(|&(_, layer, part)| (layer, part))
        .ok_or_else(|| format!("event kind '{label}' has no layer"))
}

/// One or more traced spans, split by layer.
#[derive(Debug, Clone, Default)]
pub(crate) struct Breakdown {
    pub(crate) span_ns: u128,
    /// Calibrated cost of the profiler's two clock reads per event.
    pub(crate) clock_ns: u128,
    pub(crate) events: u64,
    parts: BTreeMap<(&'static str, &'static str), u128>,
    counts: BTreeMap<String, u64>,
}

impl Breakdown {
    /// Splits one `run_profiled` span of `span_ns`.
    pub(crate) fn new(
        profile: &EventProfile,
        span_ns: u128,
        clock_read_ns: f64,
    ) -> Result<Breakdown, String> {
        let mut b = Breakdown {
            span_ns,
            ..Breakdown::default()
        };
        for kind in &profile.kinds {
            let key = layer_of(kind.label)?;
            *b.parts.entry(key).or_default() += kind.total_ns;
            *b.counts.entry(kind.label.to_owned()).or_default() += kind.count;
            b.events += kind.count;
        }
        b.clock_ns = (2.0 * clock_read_ns * b.events as f64).round() as u128;
        Ok(b)
    }

    /// Adds another span's split to this one.
    pub(crate) fn merge(&mut self, other: &Breakdown) {
        self.span_ns += other.span_ns;
        self.clock_ns += other.clock_ns;
        self.events += other.events;
        for (k, v) in &other.parts {
            *self.parts.entry(*k).or_default() += v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k.clone()).or_default() += v;
        }
    }

    /// Handler self time of `layer`, or of one `part` of it.
    pub(crate) fn self_ns(&self, layer: &str, part: Option<&str>) -> u128 {
        self.parts
            .iter()
            .filter(|((l, p), _)| *l == layer && part.is_none_or(|want| *p == want))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Time inside event handlers, all layers together.
    pub(crate) fn handler_ns(&self) -> u128 {
        self.parts.values().sum()
    }

    /// Span time not inside any handler and not spent reading the clock.
    pub(crate) fn residual_ns(&self) -> i128 {
        self.span_ns as i128 - self.handler_ns() as i128 - self.clock_ns as i128
    }

    /// Events recorded under one `EventProfile` label.
    pub(crate) fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// `layer`'s share of handler time; the layers' shares sum to 1.
    pub(crate) fn share(&self, layer: &str) -> f64 {
        self.self_ns(layer, None) as f64 / self.handler_ns() as f64
    }
}

/// Cost of one `Instant::now()` read in ns: median of five timed batches.
pub(crate) fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    crate::stats::median(&batches)
}

/// Spans recorded around the benchmark's calls into the library, kept in
/// memory and written out with the result.
#[derive(Debug)]
pub(crate) struct Spans {
    epoch: Instant,
    workload: &'static str,
    list: Vec<(&'static str, u64, u64)>,
}

impl Spans {
    pub(crate) fn new(workload: &'static str) -> Spans {
        Spans {
            epoch: Instant::now(),
            workload,
            list: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and duration.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end);
        (out, end - start)
    }

    pub(crate) fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.list.push((name, ns(start), ns(end)));
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(
            self.list
                .iter()
                .map(|&(name, start, end)| {
                    Json::object()
                        .field("name", name)
                        .field("parent", self.workload)
                        .field("start_ns", start)
                        .field("end_ns", end)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dftmsn_core::params::ScenarioParams;
    use dftmsn_core::variants::ProtocolKind;
    use dftmsn_core::world::Simulation;

    fn profiled() -> EventProfile {
        let scenario = ScenarioParams::smoke_test().with_duration_secs(120);
        Simulation::builder(scenario, ProtocolKind::Opt)
            .build()
            .run_profiled()
            .1
    }

    #[test]
    fn the_layer_map_covers_every_profiled_label() {
        let profile = profiled();
        for kind in &profile.kinds {
            let (layer, _) = layer_of(kind.label).expect("mapped");
            assert!(LAYERS.contains(&layer), "{layer} is not a reported layer");
        }
        assert!(layer_of("Timer:Unheard").is_err());
    }

    #[test]
    fn an_unmapped_label_fails_the_breakdown() {
        let mut profile = profiled();
        profile.kinds[0].label = "Mystery";
        assert!(Breakdown::new(&profile, 1, 0.0).is_err());
    }

    #[test]
    fn layers_clock_and_residual_sum_to_the_span() {
        let profile = profiled();
        let span = profile.total_ns() + 12_345;
        let mut b = Breakdown::new(&profile, span, 1.5).expect("mapped");
        let whole = |b: &Breakdown| {
            let layers: u128 = LAYERS.iter().map(|l| b.self_ns(l, None)).sum();
            layers as i128 + b.clock_ns as i128 + b.residual_ns()
        };
        let shares: f64 = LAYERS.iter().map(|l| b.share(l)).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        assert_eq!(whole(&b), span as i128);
        assert_eq!(
            b.clock_ns,
            (3.0 * profile.total_events() as f64).round() as u128
        );
        b.merge(&b.clone());
        assert_eq!(whole(&b), 2 * span as i128);
        assert_eq!(b.events, 2 * profile.total_events());
        let mac: u128 = ["wakeup", "listen", "handshake", "guard"]
            .iter()
            .map(|p| b.self_ns("core.mac", Some(p)))
            .sum();
        assert_eq!(mac, b.self_ns("core.mac", None));
    }

    #[test]
    fn spans_carry_name_parent_and_bounds() {
        let mut spans = Spans::new("w");
        let (v, took) = spans.time("a", || 7);
        assert_eq!(v, 7);
        let start = spans.epoch + Duration::from_nanos(100);
        spans.record("b", start, start + Duration::from_nanos(40));
        let json = spans.to_json();
        let list = json.as_array().expect("an array");
        assert_eq!(list.len(), 2);
        let field = |i: usize, k| list[i].get(k).and_then(Json::as_f64);
        assert_eq!(list[1].get("parent").and_then(Json::as_str), Some("w"));
        assert_eq!(
            (field(1, "start_ns"), field(1, "end_ns")),
            (Some(100.0), Some(140.0))
        );
        let a = field(0, "end_ns").unwrap() - field(0, "start_ns").unwrap();
        assert_eq!(a, took.as_nanos() as f64);
    }
}
