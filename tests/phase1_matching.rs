//! Cross-crate integration of Phase 1: candidate generation (acme-vit),
//! energy objectives (acme-energy), and PFG selection (acme-pareto).

use acme::{build_candidate_pool_on, customize_backbone_for_cluster, Pool};
use acme_data::{cifar100_like, SyntheticSpec};
use acme_energy::{Device, DeviceCluster, EdgeId, EnergyModel, Fleet};
use acme_nn::ParamSet;
use acme_pareto::{dominates, Candidate, GridSpec};
use acme_tensor::SmallRng64;
use acme_vit::{TrainConfig, Vit, VitConfig};

fn pool() -> Vec<acme::CandidateModel> {
    let mut rng = SmallRng64::new(0);
    let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
    let (train, val) = ds.split(0.7, &mut rng);
    let cfg = VitConfig::tiny(ds.num_classes());
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    build_candidate_pool_on(
        &Pool::serial(),
        &vit,
        &ps,
        &train,
        &val,
        &[0.5, 1.0],
        &[1, 2],
        &TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        },
        1,
        &mut rng,
    )
}

#[test]
fn candidate_params_grow_with_width_and_depth() {
    let pool = pool();
    let get = |w: f64, d: usize| pool.iter().find(|c| c.w == w && c.d == d).unwrap().params;
    assert!(get(0.5, 1) < get(0.5, 2));
    assert!(get(0.5, 2) < get(1.0, 2));
    assert!(get(0.5, 1) < get(1.0, 1));
}

#[test]
fn selected_model_is_feasible_and_grid_undominated() {
    let pool = pool();
    let energy = EnergyModel::default();
    let cluster = DeviceCluster::new(
        EdgeId(0),
        vec![Device::new(
            0,
            4.0,
            pool.iter().map(|c| c.params).max().unwrap() + 1,
        )],
    );
    let idx = customize_backbone_for_cluster(&pool, &cluster, &energy, 3, 0.2)
        .unwrap()
        .unwrap();
    let candidates: Vec<Candidate> = pool
        .iter()
        .map(|c| {
            let e = energy.energy(&cluster.devices()[0], c.w, c.d, 3);
            Candidate::new(c.w, c.d, [c.loss, e, c.params as f64])
        })
        .collect();
    // Eq. (13) operates at the grid resolution γ_p: the chosen model may
    // be raw-dominated *within its own cell*, but must not sit in a cell
    // that another candidate's cell strictly dominates.
    let spec = GridSpec::from_candidates(&candidates, 0.2).unwrap();
    let chosen = spec.coords(&candidates[idx].objectives);
    for (j, c) in candidates.iter().enumerate() {
        if j == idx {
            continue;
        }
        let other = spec.coords(&c.objectives);
        let grid_dominates = other.iter().zip(&chosen).all(|(a, b)| a <= b)
            && other.iter().zip(&chosen).any(|(a, b)| a < b);
        assert!(
            !grid_dominates,
            "choice {idx} grid-dominated by {j}: {chosen:?} vs {other:?}"
        );
    }
    // And it must never be dominated by a *strictly smaller and better*
    // candidate in raw space outside its cell.
    let raw: Vec<[f64; acme_pareto::NUM_OBJECTIVES]> =
        candidates.iter().map(|c| c.objectives).collect();
    for (j, o) in raw.iter().enumerate() {
        if j != idx && dominates(o, &raw[idx]) {
            let other = spec.coords(o);
            assert_eq!(
                other, chosen,
                "raw dominance only tolerable within one grid cell"
            );
        }
    }
}

#[test]
fn tighter_storage_gives_smaller_or_equal_models() {
    let pool = pool();
    let energy = EnergyModel::default();
    let max = pool.iter().map(|c| c.params).max().unwrap();
    let mut last = u64::MAX;
    for bound in [max + 1, max, max / 2 + 1] {
        let cluster = DeviceCluster::new(EdgeId(0), vec![Device::new(0, 4.0, bound)]);
        if let Some(i) = customize_backbone_for_cluster(&pool, &cluster, &energy, 3, 0.2).unwrap() {
            assert!(pool[i].params < bound);
            assert!(pool[i].params <= last);
            last = pool[i].params;
        }
    }
}

#[test]
fn micro_fleet_selection_is_monotone_over_clusters() {
    let pool = pool();
    let energy = EnergyModel::default();
    let full = pool.iter().map(|c| c.params).max().unwrap();
    let fleet = Fleet::micro_scaled(4, 2, full);
    let mut sizes = Vec::new();
    for cluster in fleet.clusters() {
        if let Some(i) = customize_backbone_for_cluster(&pool, cluster, &energy, 3, 0.2).unwrap() {
            sizes.push(pool[i].params);
        }
    }
    assert!(!sizes.is_empty());
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "sizes {sizes:?}");
}
