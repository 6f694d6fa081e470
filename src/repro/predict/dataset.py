"""Lead-time-aware training data from synthetic campaigns.

The labeling protocol is the honesty contract of the whole subsystem
(the property tests in ``tests/predict`` enforce it):

- pick a grid of **cut** instants inside the campaign;
- **features** at a cut see only events with ``time <= cut`` -- the
  stream is folded incrementally up to the cut and nothing further;
- a node is **positive** iff a non-recoverable HET event hits it inside
  ``(cut + lead_s, cut + lead_s + horizon_s]``.  The ``lead_s`` gap is
  dead time: failures there are neither featurised nor labeled, so a
  positive prediction is always actionable at least ``lead_s`` ahead;
- the sample universe at a cut is the nodes with at least one CE by the
  cut (a predictor can only rank nodes it has seen); failures on silent
  nodes are tallied as ``unseeable`` rather than silently dropped.

Train/eval separation is **by campaign seed**, never by row: rows from
one campaign share fault structure, so a row-level split would leak.

The stock :class:`~repro.synth.campaign.CampaignGenerator` draws DUE
nodes uniformly (the paper only reports totals), which carries no
learnable signal -- so training campaigns opt into the generator's
``due_hazard`` linkage and a boosted DUE rate / widened HET recording
window via :func:`training_calibration`.  Everything stays seeded and
deterministic; evaluation campaigns use held-out seeds of the *same*
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._util import DAY_S, DictConfig
from repro.predict.errors import PredictError
from repro.predict.features import FeatureConfig, FeatureState
from repro.stream.online_coalesce import OnlineCoalescer
from repro.synth.campaign import Campaign, CampaignGenerator
from repro.synth.config import PaperCalibration

#: DUE-rate multiplier for training campaigns: the paper's 0.00948
#: DUEs/DIMM-year over a 22-day recording window yields a handful of
#: failures per small-scale campaign -- far too few to fit or evaluate
#: against.  The boost trades calibration realism for label volume,
#: which is the right trade for a *training distribution*.
TRAIN_DUE_BOOST = 50.0

#: Fraction of training-campaign DUEs linked to the fault population.
TRAIN_DUE_HAZARD = 0.85


def training_calibration(
    base: PaperCalibration | None = None,
    due_boost: float = TRAIN_DUE_BOOST,
) -> PaperCalibration:
    """The stock calibration with prediction-friendly label volume.

    Boosts the DUE rate and opens the HET recording window 30 days into
    the CE window (instead of the paper's Aug 23 firmware date), so
    labels span months rather than three weeks.
    """
    cal = base or PaperCalibration()
    return replace(
        cal,
        due_per_dimm_year=cal.due_per_dimm_year * due_boost,
        het_recording_start=cal.error_window[0] + 30.0 * DAY_S,
    )


def make_training_campaign(
    seed: int,
    scale: float,
    due_hazard: float = TRAIN_DUE_HAZARD,
    due_boost: float = TRAIN_DUE_BOOST,
) -> Campaign:
    """One hazard-linked campaign of the training distribution."""
    return CampaignGenerator(
        seed=seed,
        scale=scale,
        calibration=training_calibration(due_boost=due_boost),
        due_hazard=due_hazard,
    ).generate()


@dataclass(frozen=True)
class DatasetConfig(DictConfig):
    """Labeling-protocol knobs (all times in seconds)."""

    #: Number of cut instants per campaign.
    n_cuts: int = 16
    #: Minimum actionable lead time (the dead gap after each cut).
    lead_s: float = 3600.0
    #: Length of the label window after the lead gap.
    horizon_s: float = 7.0 * DAY_S
    feature: FeatureConfig = FeatureConfig()


@dataclass
class Dataset:
    """Feature rows plus labels and row provenance."""

    X: np.ndarray          # (n, n_features) float64
    y: np.ndarray          # (n,) bool
    node: np.ndarray       # (n,) int32
    cut: np.ndarray        # (n,) float64
    seed: np.ndarray       # (n,) int32 campaign seed per row
    #: Seconds from the cut to the first failure in the label window;
    #: -1.0 on negative rows.  Drives the lead-time recall curve.
    lead_available: np.ndarray  # (n,) float64
    #: Failures that fell in a label window on a node with no CE history
    #: by the cut -- invisible to any CE-history predictor.
    unseeable: int = 0

    @property
    def n_rows(self) -> int:
        return int(self.y.size)

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())


def concat_datasets(parts: list) -> Dataset:
    """Concatenate per-campaign datasets in the given order."""
    parts = [p for p in parts if p is not None]
    if not parts:
        raise PredictError(
            "no datasets to concatenate; hint: pass at least one "
            "campaign seed"
        )
    return Dataset(
        X=np.concatenate([p.X for p in parts]),
        y=np.concatenate([p.y for p in parts]),
        node=np.concatenate([p.node for p in parts]),
        cut=np.concatenate([p.cut for p in parts]),
        seed=np.concatenate([p.seed for p in parts]),
        lead_available=np.concatenate([p.lead_available for p in parts]),
        unseeable=sum(p.unseeable for p in parts),
    )


def cut_grid(campaign: Campaign, config: DatasetConfig) -> np.ndarray:
    """Evenly spaced cut instants whose label windows are observable.

    Labels come from HET records, so every label window must sit inside
    the HET recording window; the last cut leaves room for the full
    ``lead + horizon``.
    """
    cal = campaign.calibration
    t_end = cal.error_window[1]
    first = cal.het_recording_start
    last = t_end - config.lead_s - config.horizon_s
    if last <= first:
        raise PredictError(
            f"label protocol does not fit the campaign: cuts need "
            f"[{first:.0f}, {last:.0f}] but the window is empty; "
            f"hint: shrink lead_s/horizon_s or widen the HET recording "
            f"window (training_calibration does)"
        )
    return np.linspace(first, last, config.n_cuts)


def build_dataset(campaign: Campaign, config: DatasetConfig) -> Dataset:
    """One incremental pass over a campaign, pausing at each cut.

    The errors and HET streams are folded strictly up to each cut
    before extraction -- the same code path the online scorer uses, so
    offline training rows and online scoring rows are byte-identical at
    equal instants.
    """
    cuts = cut_grid(campaign, config)
    state = FeatureState(config.feature)
    coalescer = OnlineCoalescer()

    errors = campaign.errors
    het = campaign.het
    e_times = errors["time"]
    h_times = het["time"]
    ue = het[het["non_recoverable"]]
    ue_times = ue["time"]
    ue_nodes = ue["node"].astype(np.int64)

    parts_X, parts_y = [], []
    parts_node, parts_cut, parts_seed, parts_lead = [], [], [], []
    unseeable = 0
    e_ptr = h_ptr = 0
    for cut in cuts.tolist():
        e_to = int(np.searchsorted(e_times, cut, side="right"))
        if e_to > e_ptr:
            state.fold_errors(errors[e_ptr:e_to])
            coalescer.add(errors[e_ptr:e_to])
            e_ptr = e_to
        h_to = int(np.searchsorted(h_times, cut, side="right"))
        if h_to > h_ptr:
            state.fold_het(het[h_ptr:h_to])
            h_ptr = h_to

        nodes = state.nodes_seen
        if not nodes:
            continue
        X = state.extract(nodes, coalescer, at=cut)

        lo, hi = cut + config.lead_s, cut + config.lead_s + config.horizon_s
        in_window = (ue_times > lo) & (ue_times <= hi)
        window_nodes = ue_nodes[in_window]
        window_times = ue_times[in_window]
        first_failure: dict[int, float] = {}
        for node, t in zip(window_nodes.tolist(), window_times.tolist()):
            if node not in first_failure or t < first_failure[node]:
                first_failure[node] = t

        node_arr = np.asarray(nodes, dtype=np.int32)
        y = np.array([n in first_failure for n in nodes], dtype=bool)
        lead = np.array(
            [
                first_failure[n] - cut if n in first_failure else -1.0
                for n in nodes
            ],
            dtype=np.float64,
        )
        unseeable += len(set(first_failure) - set(nodes))

        parts_X.append(X)
        parts_y.append(y)
        parts_node.append(node_arr)
        parts_cut.append(np.full(node_arr.size, cut, dtype=np.float64))
        parts_seed.append(
            np.full(node_arr.size, campaign.seed, dtype=np.int32)
        )
        parts_lead.append(lead)

    if not parts_X:
        raise PredictError(
            "campaign produced no feature rows: no node saw a CE before "
            "any cut; hint: raise the scale or widen the cut grid"
        )
    return Dataset(
        X=np.concatenate(parts_X),
        y=np.concatenate(parts_y),
        node=np.concatenate(parts_node),
        cut=np.concatenate(parts_cut),
        seed=np.concatenate(parts_seed),
        lead_available=np.concatenate(parts_lead),
        unseeable=unseeable,
    )


def _build_one(task: tuple) -> Dataset:
    """Worker: generate one training campaign and featurise it.

    Module-level so :func:`repro.parallel.executor.map_tasks` can pickle
    it by name into pool workers.
    """
    seed, scale, config_dict, due_hazard, due_boost = task
    campaign = make_training_campaign(
        seed, scale, due_hazard=due_hazard, due_boost=due_boost
    )
    return build_dataset(campaign, DatasetConfig.from_dict(config_dict))


def build_seed_datasets(
    seeds,
    scale: float,
    config: DatasetConfig | None = None,
    jobs: int = 0,
    due_hazard: float = TRAIN_DUE_HAZARD,
    due_boost: float = TRAIN_DUE_BOOST,
) -> Dataset:
    """Datasets for many campaign seeds, concatenated in seed order.

    ``jobs`` fans campaign generation + featurisation out over a
    process pool; results come back in task order, so the concatenated
    dataset is byte-identical for any ``jobs`` value (the ``--jobs
    {0,4}`` identity test).
    """
    from repro.parallel.executor import map_tasks

    config = config or DatasetConfig()
    tasks = [
        (int(s), float(scale), config.to_dict(), due_hazard, due_boost)
        for s in seeds
    ]
    return concat_datasets(map_tasks(_build_one, tasks, jobs))
