//! Degree statistics and power-law validation.
//!
//! The paper validates its synthetic graphs by fitting the in-degree
//! distribution and checking conformance with the hubs-and-spokes
//! (power-law) model: "Very few nodes have a very high inlink values"
//! (§V-B3). [`fit_power_law`] implements the standard discrete
//! maximum-likelihood estimator (Clauset–Shalizi–Newman form)
//! `alpha = 1 + n / Σ ln(d_i / (d_min - 0.5))` over degrees ≥ `d_min`.

use crate::csr::CsrGraph;

/// Summary of a degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices sampled.
    pub count: usize,
    /// Largest degree.
    pub max: u32,
    /// Smallest degree.
    pub min: u32,
    /// Sum of degrees (i.e. the edge count for out/in degrees).
    pub total: u64,
    /// Degree histogram: `histogram[d]` = number of vertices with
    /// degree `d` (truncated at `max`).
    pub histogram: Vec<usize>,
}

impl DegreeStats {
    /// Builds stats from raw degrees.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        if degrees.is_empty() {
            return DegreeStats { count: 0, max: 0, min: 0, total: 0, histogram: vec![] };
        }
        let max = *degrees.iter().max().unwrap();
        let min = *degrees.iter().min().unwrap();
        let total = degrees.iter().map(|&d| d as u64).sum();
        let mut histogram = vec![0usize; max as usize + 1];
        for &d in degrees {
            histogram[d as usize] += 1;
        }
        DegreeStats { count: degrees.len(), max, min, total, histogram }
    }

    /// In-degree statistics of `g`.
    pub fn in_degrees(g: &CsrGraph) -> Self {
        Self::from_degrees(&g.in_degrees())
    }

    /// Mean degree.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Discrete MLE fit of a power-law exponent over `degrees >= d_min`.
///
/// Returns `None` if fewer than 10 vertices qualify (fit meaningless).
pub fn fit_power_law(degrees: &[u32], d_min: u32) -> Option<f64> {
    assert!(d_min >= 1, "d_min must be at least 1");
    let xm = d_min as f64 - 0.5;
    let mut n = 0usize;
    let mut log_sum = 0.0f64;
    for &d in degrees {
        if d >= d_min {
            n += 1;
            log_sum += (d as f64 / xm).ln();
        }
    }
    if n < 10 || log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + n as f64 / log_sum)
}

/// The properties reported in the paper's Table II for one input graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProperties {
    /// Vertex count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// In-degree power-law exponent (best fit), if well-defined.
    pub power_law_alpha: Option<f64>,
    /// Largest in-degree (hub size).
    pub max_in_degree: u32,
    /// Mean out-degree.
    pub mean_out_degree: f64,
}

impl GraphProperties {
    /// Measures `g`.
    pub fn measure(g: &CsrGraph) -> Self {
        let indeg = g.in_degrees();
        let in_stats = DegreeStats::from_degrees(&indeg);
        GraphProperties {
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            power_law_alpha: fit_power_law(&indeg, 2),
            max_in_degree: in_stats.max,
            mean_out_degree: g.num_edges() as f64 / g.num_nodes().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_of_known_degrees() {
        let s = DegreeStats::from_degrees(&[0, 1, 1, 2, 4]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 0);
        assert_eq!(s.total, 8);
        assert_eq!(s.histogram, vec![1, 2, 1, 0, 1]);
        assert!((s.mean() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn empty_degrees() {
        let s = DegreeStats::from_degrees(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.histogram.is_empty());
    }

    #[test]
    fn power_law_fit_recovers_synthetic_exponent() {
        // Sample degrees from a discrete power law with alpha = 2.5 via
        // inverse transform on the Pareto CDF, then fit.
        let alpha = 2.5f64;
        let mut degrees = Vec::new();
        let mut u = 0.0005f64;
        while u < 1.0 {
            let x = (1.0 - u).powf(-1.0 / (alpha - 1.0));
            degrees.push(x.round() as u32);
            u += 0.001;
        }
        let fit = fit_power_law(&degrees, 2).expect("enough samples");
        assert!((fit - alpha).abs() < 0.35, "fit {fit} too far from {alpha}");
    }

    #[test]
    fn power_law_fit_rejects_tiny_samples() {
        assert_eq!(fit_power_law(&[5, 6, 7], 2), None);
    }

    #[test]
    fn preferential_attachment_looks_power_law() {
        let g = generators::preferential_attachment(5000, 3, 1, 1, 11);
        let props = GraphProperties::measure(&g);
        let alpha = props.power_law_alpha.expect("fit exists");
        // Cumulative-advantage processes land roughly in (1.5, 3.5).
        assert!((1.2..4.5).contains(&alpha), "alpha = {alpha}");
        // Hubs: the top in-degree dwarfs the mean out-degree.
        assert!(props.max_in_degree as f64 > 5.0 * props.mean_out_degree);
    }

    #[test]
    fn uniform_graph_is_not_heavy_tailed() {
        let pa = generators::preferential_attachment(4000, 3, 1, 1, 2);
        let er = generators::erdos_renyi(4000, pa.num_edges(), 2);
        let pa_stats = DegreeStats::in_degrees(&pa);
        let er_stats = DegreeStats::in_degrees(&er);
        assert!(
            pa_stats.max > 2 * er_stats.max,
            "PA hubs ({}) should dominate ER max degree ({})",
            pa_stats.max,
            er_stats.max
        );
    }
}
