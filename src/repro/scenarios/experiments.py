"""The scenario experiments: x8 (city diurnal) and x9 (flash crowd).

Registered :class:`~repro.study.registry.ExperimentDef`s over the
scenario engine, so the Study facade, ``--grid`` sweeps, the content-
addressed cache, the service backend, the generated CLI, and versioned
archives all apply to city-scale workloads with zero extra wiring:

* **x8 — city-diurnal**: a population arriving along a compressed
  diurnal curve, the default city mix (VOD on campus links, mobile
  commuters with walk-out windows, live-edge and adaptive slices), a
  Zipf catalog, and background churn off by default.  The policy
  comparison asks how server selection holds the SLO tail through a
  shaped day.
* **x9 — flash-crowd-with-brownout**: most of the population lands
  inside a few-second burst while the churn timeline browns out and
  crashes video servers under it — the §2 robustness story measured as
  population SLOs (start-up tail, rebuffer ratio, failover rate).

Both render per-policy :class:`~repro.scenarios.slo.SLOReport` tables
and archive the raw SLO dicts.
"""

from __future__ import annotations

from functools import partial
from collections.abc import Mapping

from ..analysis.experiments import POLICY_CHOICES, ExperimentResult
from ..analysis.tables import format_table
from ..ext.population import PopulationCampaign
from ..study.params import Param, ParamSchema
from ..study.registry import ExperimentDef, ExperimentPlan, register
from .arrivals import ArrivalSpec, DiurnalCurve, FlashCrowd
from .churn import ChurnSpec
from .experiment import ScenarioExperiment
from .mix import MixSpec
from .slo import SLOReport, population_slo

__all__ = ["X8", "X9"]


def _slo_rows(policies, results) -> tuple[list[dict[str, str]], dict[str, dict]]:
    rows: list[dict[str, str]] = []
    raw: dict[str, dict] = {}
    for policy in policies:
        slo: SLOReport = population_slo(results[policy].batch)
        raw[policy] = slo.as_dict()
        rows.append(
            {
                "policy": policy,
                "p50/p95/p99 start-up (s)": (
                    f"{slo.p50_startup_s:.2f} / {slo.p95_startup_s:.2f} / "
                    f"{slo.p99_startup_s:.2f}"
                ),
                "rebuffer ratio": f"{slo.rebuffer_ratio:.4f}",
                "failovers/session": f"{slo.failover_rate:.2f}",
                "imbalance (mean/max)": (
                    f"{slo.imbalance_mean:.2f} / {slo.imbalance_max:.2f}"
                ),
                "completed": f"{slo.completed}/{slo.sessions}",
            }
        )
    return rows, raw


# ---------------------------------------------------------------------------
# EXP-X8 — city-diurnal population
# ---------------------------------------------------------------------------


def _x8_experiment(params: Mapping) -> ScenarioExperiment:
    return ScenarioExperiment(
        arrivals=ArrivalSpec(
            horizon_s=params["horizon"],
            curve=DiurnalCurve(
                amplitude=params["amplitude"], period_s=params["horizon"]
            ),
        ),
        mix=MixSpec(catalog_size=params["catalog"], zipf_s=params["zipf"]),
        churn=ChurnSpec(),
        client_count=params["clients"],
        seed=params["seed"],
    )


def _plan_x8(params: Mapping) -> ExperimentPlan:
    """Population SLOs under a compressed diurnal day, per policy.

    One :class:`~repro.ext.population.PopulationCampaign` of
    :class:`~repro.ext.population.PopulationSpec` work units —
    replicates fan out across processes exactly like x6, and replicate
    seeds stay policy-independent.
    """
    experiment = _x8_experiment(params)
    campaign = PopulationCampaign()
    for policy in params["policies"]:
        campaign.add(experiment.specs_for(policy, params["replicates"]))
    return ExperimentPlan(campaign, partial(_render_x8, params))


def _render_x8(params: Mapping, results: Mapping) -> ExperimentResult:
    rows, raw = _slo_rows(params["policies"], results)
    rendered = format_table(
        rows,
        title=(
            f"EXP-X8 — city diurnal: {params['clients']} clients x "
            f"{params['replicates']} replicate(s) over a "
            f"{params['horizon']:.0f}s day, population SLOs per policy"
        ),
    )
    return ExperimentResult("x8", rendered, raw)


_SCENARIO_SHARED_PARAMS = (
    Param(
        "replicates",
        int,
        2,
        help="independently seeded populations per policy; each whole "
        "population is one parallel work unit",
        minimum=1,
    ),
    Param(
        "clients",
        int,
        200,
        help="population size (mixed VOD/live/adaptive clients sharing "
        "one CDN deployment)",
        minimum=1,
    ),
    Param("seed", int, 2026, help="root seed for the whole scenario"),
    Param(
        "policies",
        str,
        POLICY_CHOICES,
        help="server-selection policies to compare",
        choices=POLICY_CHOICES,
        many=True,
    ),
    Param("catalog", int, 24, help="synthetic catalog size", minimum=1),
    Param("zipf", float, 1.1, help="catalog popularity skew (Zipf s)"),
)


X8 = register(
    ExperimentDef(
        experiment_id="x8",
        title="city-diurnal scenario population with SLO reporting",
        kind="population",
        schema=ParamSchema(
            (
                *_SCENARIO_SHARED_PARAMS,
                Param(
                    "horizon",
                    float,
                    30.0,
                    help="arrival horizon in sim seconds (one compressed day)",
                ),
                Param(
                    "amplitude",
                    float,
                    2.0,
                    help="diurnal swing: peak rate = 1 + amplitude x trough",
                ),
            )
        ),
        build=_plan_x8,
        description="Diurnal arrivals x city client mix, judged by population SLOs.",
        smoke_params={"replicates": 1, "clients": 3, "catalog": 6},
    )
)


# ---------------------------------------------------------------------------
# EXP-X9 — flash crowd over a browning-out CDN
# ---------------------------------------------------------------------------


def _x9_experiment(params: Mapping) -> ScenarioExperiment:
    crowd = max(1, int(round(params["crowd_fraction"] * params["clients"])))
    crowd = min(crowd, params["clients"])
    return ScenarioExperiment(
        arrivals=ArrivalSpec(
            horizon_s=max(params["crowd_at"] + params["crowd_width"], 1.0),
            flash_crowds=(
                FlashCrowd(
                    at_s=params["crowd_at"],
                    clients=crowd,
                    width_s=params["crowd_width"],
                ),
            ),
        ),
        mix=MixSpec(catalog_size=params["catalog"], zipf_s=params["zipf"]),
        churn=ChurnSpec(
            brownouts=params["brownouts"],
            crashes=params["crashes"],
            window_start_s=params["crowd_at"],
            window_end_s=params["crowd_at"] + max(params["crowd_width"], 1.0) + 20.0,
        ),
        client_count=params["clients"],
        seed=params["seed"],
    )


def _plan_x9(params: Mapping) -> ExperimentPlan:
    """The robustness scenario: a burst arrival meets CDN churn."""
    experiment = _x9_experiment(params)
    campaign = PopulationCampaign()
    for policy in params["policies"]:
        campaign.add(experiment.specs_for(policy, params["replicates"]))
    return ExperimentPlan(campaign, partial(_render_x9, params))


def _render_x9(params: Mapping, results: Mapping) -> ExperimentResult:
    rows, raw = _slo_rows(params["policies"], results)
    rendered = format_table(
        rows,
        title=(
            f"EXP-X9 — flash crowd ({params['crowd_fraction']:.0%} of "
            f"{params['clients']} clients in {params['crowd_width']:.0f}s) "
            f"with {params['brownouts']} brownout(s) + "
            f"{params['crashes']} crash(es)"
        ),
    )
    return ExperimentResult("x9", rendered, raw)


X9 = register(
    ExperimentDef(
        experiment_id="x9",
        title="flash-crowd-with-brownout scenario population",
        kind="population",
        schema=ParamSchema(
            (
                *_SCENARIO_SHARED_PARAMS,
                Param("crowd_at", float, 8.0, help="burst start (sim seconds)"),
                Param("crowd_width", float, 4.0, help="burst width (sim seconds)"),
                Param(
                    "crowd_fraction",
                    float,
                    0.6,
                    help="share of the population arriving inside the burst",
                ),
                Param(
                    "brownouts",
                    int,
                    2,
                    help="video-server brownout windows injected under the crowd",
                    minimum=0,
                ),
                Param(
                    "crashes",
                    int,
                    1,
                    help="hard video-server crash/recover windows",
                    minimum=0,
                ),
            )
        ),
        build=_plan_x9,
        description="Burst arrivals over a degrading CDN — §2 robustness as SLOs.",
        smoke_params={"replicates": 1, "clients": 3, "catalog": 6},
    )
)
