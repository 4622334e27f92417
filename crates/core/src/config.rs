//! MultiRAG configuration: thresholds, α/β, ablation switches.

/// Full configuration of the MultiRAG pipeline. Defaults reproduce the
/// paper's hyper-parameter settings (§IV-A-c): node threshold 0.7,
/// graph threshold 0.5, β = 0.5, α = 0.5, 50 historical pseudo-entities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiRagConfig {
    /// Node-confidence threshold θ (Algorithm 1 line 17). Nodes with
    /// `C(v) = S_n(v) + A(v)` below θ are dropped to the isolated set.
    pub node_threshold: f64,
    /// Graph-confidence threshold. Homologous subgraphs at or above it
    /// are trusted enough that only 1–2 top nodes need extraction; below
    /// it, all nodes are pulled in for wider verification.
    pub graph_threshold: f64,
    /// α — weight of LLM authority vs historical authority (Eq. 9).
    pub alpha: f64,
    /// β — steepness of the Eq. 10 sigmoid.
    pub beta: f64,
    /// H — historical pseudo-entity count seeding `Auth_hist` (Eq. 11).
    pub history_pseudo: f64,
    /// How many top nodes to keep from a high-confidence subgraph.
    pub trusted_top_k: usize,
    /// Ablation: enable the MKA module (MLG aggregation). When off, the
    /// pipeline falls back to scanning the entity's whole neighbourhood
    /// (the paper's `w/o MKA` column — orders of magnitude slower and
    /// noisier context).
    pub enable_mka: bool,
    /// Ablation: enable graph-level confidence filtering.
    pub enable_graph_level: bool,
    /// Ablation: enable node-level confidence filtering.
    pub enable_node_level: bool,
}

impl Default for MultiRagConfig {
    fn default() -> Self {
        Self {
            node_threshold: 0.7,
            graph_threshold: 0.5,
            alpha: 0.5,
            beta: 0.5,
            history_pseudo: 50.0,
            trusted_top_k: 2,
            enable_mka: true,
            enable_graph_level: true,
            enable_node_level: true,
        }
    }
}

impl MultiRagConfig {
    /// The `w/o MKA` ablation of Table III.
    pub fn without_mka(mut self) -> Self {
        self.enable_mka = false;
        self
    }

    /// The `w/o Graph Level` ablation of Table III.
    pub fn without_graph_level(mut self) -> Self {
        self.enable_graph_level = false;
        self
    }

    /// The `w/o Node Level` ablation of Table III.
    pub fn without_node_level(mut self) -> Self {
        self.enable_node_level = false;
        self
    }

    /// The `w/o MCC` ablation of Table III (no confidence filtering at
    /// all).
    pub fn without_mcc(mut self) -> Self {
        self.enable_graph_level = false;
        self.enable_node_level = false;
        self
    }

    /// Sets α (clamped to `[0, 1]`), for the Fig. 7 sweep.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = MultiRagConfig::default();
        assert_eq!(c.node_threshold, 0.7);
        assert_eq!(c.graph_threshold, 0.5);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.beta, 0.5);
        assert_eq!(c.history_pseudo, 50.0);
        assert!(c.enable_mka && c.enable_graph_level && c.enable_node_level);
    }

    #[test]
    fn ablation_builders_flip_the_right_switches() {
        let c = MultiRagConfig::default().without_mka();
        assert!(!c.enable_mka && c.enable_graph_level);
        let c = MultiRagConfig::default().without_graph_level();
        assert!(c.enable_mka && !c.enable_graph_level && c.enable_node_level);
        let c = MultiRagConfig::default().without_node_level();
        assert!(c.enable_graph_level && !c.enable_node_level);
        let c = MultiRagConfig::default().without_mcc();
        assert!(!c.enable_graph_level && !c.enable_node_level);
        assert!(c.enable_mka);
    }

    #[test]
    fn alpha_is_clamped() {
        assert_eq!(MultiRagConfig::default().with_alpha(1.7).alpha, 1.0);
        assert_eq!(MultiRagConfig::default().with_alpha(-0.2).alpha, 0.0);
        assert_eq!(MultiRagConfig::default().with_alpha(0.3).alpha, 0.3);
    }
}
