//! Phase 2-1: edge-side coarse-header generation via NAS (§III-C).

use acme_data::Dataset;
use acme_energy::EdgeId;
use acme_nas::{NasHeader, NasSearch, SearchConfig, SharedParams};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::Vit;

use crate::error::AcmeError;

/// Outcome of one edge server's header search: the chosen architecture
/// bound to the (trained) shared weights.
pub struct EdgeCustomization {
    /// The edge server.
    pub edge: EdgeId,
    /// The selected header bound to the shared supernet weights.
    pub header: NasHeader,
    /// Validation accuracy of the selected child during the search.
    pub search_accuracy: f32,
    /// Child evaluations performed.
    pub evaluations: usize,
}

impl std::fmt::Debug for EdgeCustomization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeCustomization")
            .field("edge", &self.edge)
            .field("arch", &self.header.arch().to_string())
            .field("search_accuracy", &self.search_accuracy)
            .finish()
    }
}

/// Fraction of the edge's shared dataset the search trains on; the rest
/// scores the children.
const SEARCH_SPLIT: f64 = 0.7;

/// Refuses a shared dataset that [`coarse_header_search`]'s train/score
/// split would leave without a row on either side.
pub(crate) fn check_search_split(edge: EdgeId, shared_data: &Dataset) -> Result<(), AcmeError> {
    let (train, val) = shared_data.split_sizes(SEARCH_SPLIT);
    if train == 0 || val == 0 {
        return Err(AcmeError::InvalidConfig(format!(
            "the {SEARCH_SPLIT} search split of {edge}'s {} shared examples leaves {train} \
             train and {val} validation examples; use a larger edge share or more data",
            shared_data.len()
        )));
    }
    Ok(())
}

/// Runs the edge server's coarse-header customization: registers a
/// supernet and controller into `ps` (which already holds the assigned
/// backbone), runs the alternating ENAS optimization on the edge's
/// shared dataset, and returns the best child. The backbone is *not*
/// frozen during this stage, matching §III-C.
///
/// # Panics
///
/// Panics on an empty shared dataset.
pub fn coarse_header_search(
    edge: EdgeId,
    backbone: &Vit,
    ps: &mut ParamSet,
    shared_data: &Dataset,
    search_cfg: &SearchConfig,
    rng: &mut SmallRng64,
) -> EdgeCustomization {
    assert!(!shared_data.is_empty(), "edge shared dataset is empty");
    let cfg = backbone.config();
    let shared = SharedParams::new(
        ps,
        &format!("edge{}.supernet", edge.0),
        search_cfg.num_blocks,
        cfg.dim,
        cfg.grid(),
        cfg.classes,
        rng,
    );
    let (train, val) = shared_data.split(SEARCH_SPLIT, rng);
    let mut search = NasSearch::new(ps, search_cfg.clone(), rng);
    let outcome = search.run(backbone, &shared, ps, &train, &val, rng);
    EdgeCustomization {
        edge,
        header: NasHeader::new(outcome.best_arch, shared),
        search_accuracy: outcome.best_accuracy,
        evaluations: outcome.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_data::{cifar100_like, SyntheticSpec};
    use acme_vit::VitConfig;

    #[test]
    fn edge_search_yields_usable_header() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let out = coarse_header_search(
            EdgeId(0),
            &vit,
            &mut ps,
            &ds,
            &SearchConfig::quick(),
            &mut rng,
        );
        assert_eq!(out.edge, EdgeId(0));
        assert!(out.evaluations > 0);
        // The returned header must forward on this backbone.
        use acme_vit::headers::Header;
        let batch = ds.sample(4, &mut rng).as_batch();
        let mut g = acme_tensor::Graph::new();
        let f = vit.forward(&mut g, &ps, &batch.images);
        let logits = out.header.forward(&mut g, &ps, &f);
        assert_eq!(g.shape(logits), &[4, ds.num_classes()]);
    }
}
