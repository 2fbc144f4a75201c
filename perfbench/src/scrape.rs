//! Diffs of two rp/5 `metrics` scrapes. The log₂ buckets are too coarse
//! for quantiles (and `service.*` stage histograms are sampled 1-in-8), so
//! only counters, histogram counts and histogram means are used: the mean
//! of a window is `(Δsum) / (Δcount)`, with `sum = mean · count`.

use std::collections::BTreeMap;

use rp_engine::protocol::Response;

/// One scrape: counters and `(count, sum)` per histogram.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, f64)>,
}

impl Scrape {
    /// Parses a `metrics` response line.
    pub fn parse(line: &str) -> Result<Self, String> {
        match Response::parse(line) {
            Ok(Response::Metrics {
                counters,
                histograms,
            }) => Ok(Self {
                counters: counters.into_iter().collect(),
                hists: histograms
                    .into_iter()
                    .map(|h| (h.name, (h.count, h.mean * h.count as f64)))
                    .collect(),
            }),
            Ok(other) => Err(format!("expected a metrics line, got `{}`", other.encode())),
            Err(e) => Err(format!("unparsable metrics line: {e}")),
        }
    }

    /// The benchmark process's own registry (what the in-process replay
    /// recorded through the library's instrumentation).
    pub fn own() -> Self {
        let obs = rp_engine::obs::global();
        Self {
            counters: obs
                .counter_values()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            hists: obs
                .histogram_summaries()
                .into_iter()
                .map(|(n, s)| (n.to_string(), (s.count, s.sum as f64)))
                .collect(),
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Scrape) -> Delta {
        let counters = self
            .counters
            .iter()
            .map(|(n, &v)| {
                let was = before.counters.get(n).copied().unwrap_or(0);
                (n.clone(), v.saturating_sub(was))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(n, &(count, sum))| {
                let (c0, s0) = before.hists.get(n).copied().unwrap_or((0, 0.0));
                (n.clone(), (count.saturating_sub(c0), (sum - s0).max(0.0)))
            })
            .collect();
        Delta { counters, hists }
    }
}

/// The difference of two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, f64)>,
}

impl Delta {
    /// A counter's increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Observations a histogram gained.
    pub fn count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.0)
    }

    /// Mean of the observations a histogram gained (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(count, sum)) if count > 0 => sum / count as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_means_come_from_count_and_sum_differences() {
        let a = Scrape::parse(
            "metrics counters=1 hists=1 c:stream.republish=2 h:wal.sync=2:100:100:100:150:125",
        )
        .unwrap();
        let b = Scrape::parse(
            "metrics counters=1 hists=1 c:stream.republish=5 h:wal.sync=4:100:100:400:450:200",
        )
        .unwrap();
        let d = b.since(&a);
        assert_eq!(d.counter("stream.republish"), 3);
        assert_eq!(d.count("wal.sync"), 2);
        assert!((d.mean("wal.sync") - 275.0).abs() < 1e-9);
        assert_eq!(d.mean("wal.append"), 0.0);
    }
}
