//! Order statistics over samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile, `q` in `0..=1`; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len() as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}
