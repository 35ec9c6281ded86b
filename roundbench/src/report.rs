//! Sample statistics and the result record.

use crate::Outcome;

/// Wall-clock (or other) samples of one quantity.
#[derive(Default, Clone, Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile by linear interpolation between order statistics
    /// (0 for no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// A metric reporting the median, with the sample count, quartiles,
    /// the highest percentile that has at least ten samples beyond it,
    /// and the maximum in its detail.
    pub fn median_metric(&self, name: &'static str, unit: &'static str) -> Metric {
        let n = self.len();
        let tail = if n >= 20 {
            let p = 1.0 - 10.0 / n as f64;
            format!(", p{:.0} {:.6}", p * 100.0, self.quantile(p))
        } else {
            String::new()
        };
        Metric {
            name,
            unit,
            value: self.median(),
            detail: format!(
                "median of {n} (q1 {:.6}, q3 {:.6}{tail}, max {:.6})",
                self.quantile(0.25),
                self.quantile(0.75),
                self.max()
            ),
        }
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub detail: String,
}

impl Metric {
    /// A metric that is a count or a single exact value.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, detail: String::new() }
    }

    pub fn with_detail(mut self, detail: impl Into<String>) -> Metric {
        self.detail = detail.into();
        self
    }
}

/// Prints one human-readable line per metric, then the result record as
/// the last line of standard output.
pub fn print_result(out: &Outcome) {
    for m in &out.metrics {
        println!("metric {:<28} {:>16} {:<6} {}", m.name, fmt_num(m.value), m.unit, m.detail);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, fmt_num(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

/// JSON number with every digit the value has; non-finite values (which
/// no metric should produce) print as 0.
fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}
