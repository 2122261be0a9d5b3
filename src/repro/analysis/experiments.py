"""Experiment definitions — one registered :class:`ExperimentDef` per
paper figure/table.

Every experiment is declared to the study registry
(:mod:`repro.study.registry`) as a typed parameter schema plus a
``build`` function returning an :class:`~repro.study.registry.
ExperimentPlan`: an *unrun* :class:`~repro.sim.campaign.Campaign` (all
configurations' work specs registered) coupled with a ``render``
callable that turns the campaign's per-label results into an
:class:`ExperimentResult` whose ``rendered`` text reproduces the
figure/table and whose ``raw`` dict carries the numbers for
assertions.  :class:`~repro.study.study.Study` is the one way to run
one — ``Study("fig2", trials=5).run(jobs=2).only().result`` — and the
registry-generated CLI (``repro experiment <id>``) and the benchmarks
go through it too.

Execution knobs are uniform across every experiment: ``seed`` is a
schema param everywhere, and ``jobs`` selects the execution
backend at :meth:`Study.run` time (``1`` serial, ``N`` or ``"auto"`` a
process pool; see :mod:`repro.sim.execution`).  Every experiment —
including the formerly serial-only fig1 and x3 — runs its whole sweep
as one campaign submission, and trials are i.i.d. with derived seeds,
so the rendered output is byte-identical whatever the backend or
submission order.

Index (see DESIGN.md §4 and EXPERIMENTS.md):

=========  ==========================================================
fig1       HTTPS bootstrap timeline vs closed forms η, ψ, π
fig2       testbed pre-buffering: WiFi vs LTE vs MSPlayer (Ratio/1MB)
fig3       scheduler × pre-buffer × initial-chunk sweep
fig4       YouTube-profile pre-buffering: 20/40/60 s
fig5       YouTube-profile re-buffering: 64/256 KB vs MSPlayer
table1     WiFi traffic fraction, pre/re-buffering, 20/40/60 s
x1         robustness: server failure + WiFi outage
x2         source diversity vs single-server MPTCP analogue
x3         estimator ablation on bursty traces
x6         server-selection policies under replicated client
           populations (population campaign)
=========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from collections.abc import Mapping

import numpy as np

from ..core.config import PlayerConfig
from ..ext.multi_client import MultiClientExperiment
from ..net.tls import TLSParams, eta, head_start, psi
from ..sim.campaign import Campaign
from ..sim.execution import MSPlayerSpec, TrialSpec
from ..sim.profiles import NetworkProfile, mobility_profile, testbed_profile, youtube_profile
from ..sim.runner import TrialRunner
from ..sim.scenario import Scenario, ScenarioConfig
from ..sim.singlepath import FLASH_CHUNK, HTML5_CHUNK
from ..study.params import Param, ParamSchema
from ..study.registry import ExperimentDef, ExperimentPlan, register
from ..units import KB, MB, MS, format_size, parse_size
from .ablation import EstimatorTraceSpec
from .stats import summarize
from .tables import format_table, render_distribution_rows

#: Experiment default: the paper's repetition count.
PAPER_TRIALS = 20

#: Schedulers a sweep may select (everything ``make_scheduler`` knows).
SCHEDULER_CHOICES = ("harmonic", "ewma", "ratio", "last", "window")

#: Server-selection policies a population may use.
POLICY_CHOICES = ("static", "rotate", "least_loaded")

#: Estimators the ablation may walk.
ESTIMATOR_CHOICES = ("harmonic", "ewma", "window", "last")


@dataclass
class ExperimentResult:
    experiment_id: str
    rendered: str
    raw: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.rendered


# ---------------------------------------------------------------------------
# Shared schema params
# ---------------------------------------------------------------------------


def _trials(default: int = PAPER_TRIALS) -> Param:
    # cli_default keeps the command line's historical CI-speed default
    # (10) while the library default stays the paper's 20 repetitions.
    return Param(
        "trials",
        int,
        default,
        help="independent trials per configuration (paper: 20, §5.2)",
        minimum=1,
        cli_default=10,
    )


def _seed(default: int) -> Param:
    return Param("seed", int, default, help="root seed for derived trial seeds")


# ---------------------------------------------------------------------------
# Fig. 1 — bootstrap timeline
# ---------------------------------------------------------------------------


def _fig1_profile(rtt_wifi: float, rtt_lte: float, tls: TLSParams) -> NetworkProfile:
    from ..sim.profiles import InterfaceProfile

    return NetworkProfile(
        name="fig1",
        wifi=InterfaceProfile(
            kind="wifi", mean_mbps=20.0, sigma=0.0, rho=0.0,
            one_way_delay_s=rtt_wifi / 2, jitter_std_s=0.0,
        ),
        lte=InterfaceProfile(
            kind="lte", mean_mbps=20.0, sigma=0.0, rho=0.0,
            one_way_delay_s=rtt_lte / 2, jitter_std_s=0.0,
        ),
        tls=tls,
        proxy_distance_s=0.0,
        video_distance_s=0.0,
        dns_delay_s=0.0,
    )


def _pair_ms(measured: float, predicted: float) -> str:
    return f"{measured * 1000:7.1f} / {predicted * 1000:7.1f}"


_FIG1_TLS = TLSParams(delta1=0.008, delta2=0.008)


def _plan_fig1(params: Mapping) -> ExperimentPlan:
    """Deterministic single runs, one per θ — still a campaign, so the
    θ sweep fans out across workers like any other figure."""
    campaign = Campaign()
    for theta in params["thetas"]:
        rtt_lte = theta * params["rtt_wifi"]
        campaign.add(
            [
                TrialSpec(
                    label=f"theta={theta}",
                    trial=0,
                    seed=params["seed"],
                    profile_factory=partial(
                        _fig1_profile, params["rtt_wifi"], rtt_lte, _FIG1_TLS
                    ),
                    driver=MSPlayerSpec(
                        config=PlayerConfig(prebuffer_s=20.0), stop="prebuffer"
                    ),
                    scenario_config=ScenarioConfig(video_duration_s=120.0),
                )
            ]
        )
    return ExperimentPlan(campaign, partial(_render_fig1, params))


def _render_fig1(params: Mapping, results: Mapping) -> ExperimentResult:
    """Measured η/ψ/π on the simulated message sequence vs closed forms.

    Deterministic latencies, one video server, zero server think time:
    the only costs are the Fig. 1 exchanges, so the measured milestones
    should track ``η = 4R+Δ₁+Δ₂``, ``ψ = 6R+Δ₁+Δ₂``, ``π ≈ ψ+η``, and
    the fast path's fetch head start ``π₂−π₁ ≈ 10(θ−1)R₁``.
    """
    rtt_wifi = params["rtt_wifi"]
    rows = []
    raw: dict[str, dict[str, dict[str, float]]] = {}
    for theta in params["thetas"]:
        rtt_lte = theta * rtt_wifi
        side = results[f"theta={theta}"].sides[0]
        measured = {
            "psi_wifi": side.path_json_delay.get(0, float("nan")),
            "psi_lte": side.path_json_delay.get(1, float("nan")),
            "pi_wifi": side.path_first_video_delay.get(0, float("nan")),
            "pi_lte": side.path_first_video_delay.get(1, float("nan")),
        }
        predicted = {
            "psi_wifi": psi(rtt_wifi, _FIG1_TLS),
            "psi_lte": psi(rtt_lte, _FIG1_TLS),
            "pi_wifi": psi(rtt_wifi, _FIG1_TLS) + eta(rtt_wifi, _FIG1_TLS),
            "pi_lte": psi(rtt_lte, _FIG1_TLS) + eta(rtt_lte, _FIG1_TLS),
            "head_start": head_start(rtt_wifi, rtt_lte),
        }
        measured["head_start"] = measured["pi_lte"] - measured["pi_wifi"]
        raw[f"theta={theta}"] = {"measured": measured, "predicted": predicted}
        rows.append(
            {
                "theta": f"{theta:.1f}",
                "psi wifi meas/pred (ms)": _pair_ms(measured["psi_wifi"], predicted["psi_wifi"]),
                "psi lte meas/pred": _pair_ms(measured["psi_lte"], predicted["psi_lte"]),
                "pi wifi meas/pred": _pair_ms(measured["pi_wifi"], predicted["pi_wifi"]),
                "pi lte meas/pred": _pair_ms(measured["pi_lte"], predicted["pi_lte"]),
                "head start meas/pred": _pair_ms(measured["head_start"], predicted["head_start"]),
            }
        )
    rendered = format_table(
        rows,
        title=(
            "Fig. 1 — HTTPS bootstrap milestones, measured message sequence vs "
            "closed form (eta=4R+d1+d2, psi=6R+d1+d2, pi~psi+eta, head~10(theta-1)R1)"
        ),
    )
    return ExperimentResult("fig1", rendered, raw)


FIG1 = register(
    ExperimentDef(
        experiment_id="fig1",
        title="HTTPS bootstrap timeline vs closed forms eta, psi, pi",
        kind="single",
        schema=ParamSchema(
            (
                Param(
                    "rtt_wifi",
                    float,
                    50 * MS,
                    help="WiFi round-trip time in seconds",
                    minimum=0.001,
                ),
                Param(
                    "thetas",
                    float,
                    (1.5, 2.0, 2.5, 3.0),
                    help="LTE/WiFi RTT ratios to sweep",
                    minimum=1.0,
                    many=True,
                ),
                _seed(7),
            )
        ),
        build=_plan_fig1,
        description="Measured bootstrap milestones vs the paper's closed forms.",
        smoke_params={"thetas": (2.0,)},
    )
)


# ---------------------------------------------------------------------------
# Fig. 2 — testbed pre-buffering
# ---------------------------------------------------------------------------


def _plan_fig2(params: Mapping) -> ExperimentPlan:
    """WiFi vs LTE vs MSPlayer(Ratio, 1 MB) at a 40 s pre-buffer (§5.1)."""
    runner = TrialRunner(
        testbed_profile, root_seed=params["seed"], trials=params["trials"]
    )
    config = PlayerConfig(scheduler="ratio", base_chunk_bytes=1 * MB)
    baseline_config = PlayerConfig()
    campaign = Campaign()
    campaign.add_run(runner, "wifi", runner.singlepath(0, HTML5_CHUNK, baseline_config))
    campaign.add_run(runner, "lte", runner.singlepath(1, HTML5_CHUNK, baseline_config))
    campaign.add_run(runner, "msplayer", runner.msplayer(config))
    return ExperimentPlan(campaign, _render_fig2)


def _render_fig2(results: Mapping) -> ExperimentResult:
    samples = [
        ("WiFi", results["wifi"].startup_delays()),
        ("LTE", results["lte"].startup_delays()),
        ("MSPlayer", results["msplayer"].startup_delays()),
    ]
    medians = {label: summarize(values).median for label, values in samples}
    reduction = 1.0 - medians["MSPlayer"] / min(medians["WiFi"], medians["LTE"])
    rendered = render_distribution_rows(
        samples,
        title=(
            "Fig. 2 — 40 s pre-buffering download time, emulated testbed "
            f"(paper: MSPlayer 6.9 s vs best-single WiFi 10.9 s, -37 %; "
            f"measured reduction {reduction:.0%})"
        ),
    )
    return ExperimentResult(
        "fig2", rendered, {"medians": medians, "reduction": reduction, "samples": dict(samples)}
    )


FIG2 = register(
    ExperimentDef(
        experiment_id="fig2",
        title="testbed pre-buffering: WiFi vs LTE vs MSPlayer (Ratio/1MB)",
        kind="trials",
        schema=ParamSchema((_trials(), _seed(2014))),
        build=_plan_fig2,
        description="40 s pre-buffer download time on the emulated testbed.",
        smoke_params={"trials": 1},
    )
)


# ---------------------------------------------------------------------------
# Fig. 3 — scheduler sweep
# ---------------------------------------------------------------------------


def _plan_fig3(params: Mapping) -> ExperimentPlan:
    """Download time vs scheduler × pre-buffer duration × initial chunk
    (§5.2).  All ``len(prebuffers) × len(chunks) × len(schedulers)``
    configurations go to the pool as one campaign — the whole sweep is
    a single submission with no per-configuration barrier.
    """
    runner = TrialRunner(
        testbed_profile, root_seed=params["seed"], trials=params["trials"]
    )
    campaign = Campaign()
    for prebuffer in params["prebuffers"]:
        for chunk in params["chunks"]:
            for scheduler in params["schedulers"]:
                config = PlayerConfig(
                    prebuffer_s=prebuffer, scheduler=scheduler, base_chunk_bytes=chunk
                )
                label = f"{scheduler}/{format_size(chunk)}/{prebuffer:.0f}s"
                campaign.add_run(runner, label, runner.msplayer(config))
    return ExperimentPlan(campaign, partial(_render_fig3, params))


def _render_fig3(params: Mapping, results: Mapping) -> ExperimentResult:
    raw: dict[str, dict] = {}
    sections: list[str] = []
    for prebuffer in params["prebuffers"]:
        for chunk in params["chunks"]:
            samples = []
            for scheduler in params["schedulers"]:
                label = f"{scheduler}/{format_size(chunk)}/{prebuffer:.0f}s"
                delays = results[label].batch.startup_delays()
                samples.append((scheduler, delays))
                stats = summarize(delays)
                raw[label] = {"median": stats.median, "std": stats.std}
            sections.append(
                render_distribution_rows(
                    samples,
                    title=(
                        f"Fig. 3 — pre-buffer {prebuffer:.0f}s, "
                        f"initial chunk {format_size(chunk)}"
                    ),
                )
            )
    return ExperimentResult("fig3", "\n\n".join(sections), raw)


FIG3 = register(
    ExperimentDef(
        experiment_id="fig3",
        title="scheduler x pre-buffer x initial-chunk sweep",
        kind="trials",
        schema=ParamSchema(
            (
                _trials(),
                _seed(2015),
                Param(
                    "prebuffers",
                    float,
                    (20.0, 40.0, 60.0),
                    help="pre-buffer durations (seconds) to sweep",
                    minimum=1.0,
                    many=True,
                ),
                Param(
                    "chunks",
                    int,
                    (16 * KB, 64 * KB, 256 * KB, 1 * MB),
                    help="initial chunk sizes (accepts 64KB/1MB forms)",
                    minimum=1,
                    many=True,
                    parse=parse_size,
                ),
                Param(
                    "schedulers",
                    str,
                    ("harmonic", "ewma", "ratio"),
                    help="chunk schedulers to sweep",
                    choices=SCHEDULER_CHOICES,
                    many=True,
                ),
            )
        ),
        build=_plan_fig3,
        description="The full §5.2 configuration sweep as one campaign.",
        smoke_params={
            "trials": 1,
            "prebuffers": (20.0,),
            "chunks": (64 * KB,),
            "schedulers": ("harmonic",),
        },
    )
)


# ---------------------------------------------------------------------------
# Fig. 4 — YouTube-profile pre-buffering
# ---------------------------------------------------------------------------


def _plan_fig4(params: Mapping) -> ExperimentPlan:
    """Start-up delay for each pre-buffer on the wide-area profile (§6)."""
    runner = TrialRunner(
        youtube_profile, root_seed=params["seed"], trials=params["trials"]
    )
    campaign = Campaign()
    for prebuffer in params["prebuffers"]:
        config = PlayerConfig(prebuffer_s=prebuffer)
        campaign.add_run(runner, f"wifi-{prebuffer}", runner.singlepath(0, HTML5_CHUNK, config))
        campaign.add_run(runner, f"lte-{prebuffer}", runner.singlepath(1, HTML5_CHUNK, config))
        campaign.add_run(runner, f"ms-{prebuffer}", runner.msplayer(config))
    return ExperimentPlan(campaign, partial(_render_fig4, params))


def _render_fig4(params: Mapping, results: Mapping) -> ExperimentResult:
    sections = []
    raw: dict[str, dict] = {}
    for prebuffer in params["prebuffers"]:
        samples = [
            ("WiFi", results[f"wifi-{prebuffer}"].startup_delays()),
            ("LTE", results[f"lte-{prebuffer}"].startup_delays()),
            ("MSPlayer", results[f"ms-{prebuffer}"].startup_delays()),
        ]
        medians = {label: summarize(values).median for label, values in samples}
        reduction = 1.0 - medians["MSPlayer"] / min(medians["WiFi"], medians["LTE"])
        raw[f"{prebuffer:.0f}s"] = {"medians": medians, "reduction": reduction}
        sections.append(
            render_distribution_rows(
                samples,
                title=(
                    f"Fig. 4 — {prebuffer:.0f} s pre-buffer over the YouTube profile "
                    f"(measured reduction {reduction:.0%}; paper: 12/21/28 % for 20/40/60 s)"
                ),
            )
        )
    return ExperimentResult("fig4", "\n\n".join(sections), raw)


FIG4 = register(
    ExperimentDef(
        experiment_id="fig4",
        title="YouTube-profile pre-buffering: 20/40/60 s",
        kind="trials",
        schema=ParamSchema(
            (
                _trials(),
                _seed(2016),
                Param(
                    "prebuffers",
                    float,
                    (20.0, 40.0, 60.0),
                    help="pre-buffer durations (seconds)",
                    minimum=1.0,
                    many=True,
                ),
            )
        ),
        build=_plan_fig4,
        description="Start-up delay on the wide-area profile (§6).",
        smoke_params={"trials": 1, "prebuffers": (20.0,)},
    )
)


# ---------------------------------------------------------------------------
# Fig. 5 — re-buffering
# ---------------------------------------------------------------------------

#: The fixed single-path baselines of Fig. 5.
_FIG5_FIXED = (
    ("WiFi 64KB", 0, FLASH_CHUNK),
    ("WiFi 256KB", 0, HTML5_CHUNK),
    ("LTE 64KB", 1, FLASH_CHUNK),
    ("LTE 256KB", 1, HTML5_CHUNK),
)


def _plan_fig5(params: Mapping) -> ExperimentPlan:
    """Playout-buffer refill time: fixed 64/256 KB single path vs
    MSPlayer (§6).  Each refill duration gets its own runner (the
    scenario's video must outlast the refills), but every configuration
    of every duration still lands in one campaign submission.
    """
    campaign = Campaign()
    target_cycles = params["target_cycles"]
    for rebuffer in params["rebuffers"]:
        # Longer refills need a longer video so cycles complete.
        scenario_config = ScenarioConfig(video_duration_s=max(300.0, rebuffer * 8))
        runner = TrialRunner(
            youtube_profile,
            scenario_config=scenario_config,
            root_seed=params["seed"],
            trials=params["trials"],
        )
        config = PlayerConfig(rebuffer_fetch_s=rebuffer)
        for label, iface, chunk in _FIG5_FIXED:
            campaign.add_run(
                runner,
                f"{label}-{rebuffer}",
                runner.singlepath(
                    iface, chunk, config, stop="cycles", target_cycles=target_cycles
                ),
            )
        campaign.add_run(
            runner,
            f"ms-{rebuffer}",
            runner.msplayer(config, stop="cycles", target_cycles=target_cycles),
        )
    return ExperimentPlan(campaign, partial(_render_fig5, params))


def _render_fig5(params: Mapping, results: Mapping) -> ExperimentResult:
    sections = []
    raw: dict[str, dict] = {}
    for rebuffer in params["rebuffers"]:
        samples = [
            (label, results[f"{label}-{rebuffer}"].cycle_durations())
            for label, _iface, _chunk in _FIG5_FIXED
        ]
        samples.append(("MSPlayer", results[f"ms-{rebuffer}"].cycle_durations()))
        raw[f"{rebuffer:.0f}s"] = {
            label: summarize(values).median for label, values in samples if values
        }
        sections.append(
            render_distribution_rows(
                [(label, values) for label, values in samples if values],
                title=f"Fig. 5 — refill {rebuffer:.0f} s of video (re-buffering phase)",
            )
        )
    return ExperimentResult("fig5", "\n\n".join(sections), raw)


FIG5 = register(
    ExperimentDef(
        experiment_id="fig5",
        title="YouTube-profile re-buffering: 64/256 KB vs MSPlayer",
        kind="trials",
        schema=ParamSchema(
            (
                _trials(),
                _seed(2017),
                Param(
                    "rebuffers",
                    float,
                    (20.0, 40.0, 60.0),
                    help="re-buffer refill durations (seconds of video)",
                    minimum=1.0,
                    many=True,
                ),
                Param(
                    "target_cycles",
                    int,
                    3,
                    help="completed re-buffering cycles per session",
                    minimum=1,
                ),
            )
        ),
        build=_plan_fig5,
        description="Refill-time distributions during steady-state playback.",
        smoke_params={"trials": 1, "rebuffers": (20.0,), "target_cycles": 1},
    )
)


# ---------------------------------------------------------------------------
# Table 1 — traffic fraction over WiFi
# ---------------------------------------------------------------------------


def _plan_table1(params: Mapping) -> ExperimentPlan:
    """Mean ± std of WiFi's byte share, pre- and re-buffering (§6)."""
    campaign = Campaign()
    for duration in params["durations"]:
        scenario_config = ScenarioConfig(video_duration_s=max(300.0, duration * 8))
        runner = TrialRunner(
            youtube_profile,
            scenario_config=scenario_config,
            root_seed=params["seed"],
            trials=params["trials"],
        )
        config = PlayerConfig(prebuffer_s=duration, rebuffer_fetch_s=duration)
        campaign.add_run(
            runner, f"t1-{duration}", runner.msplayer(config, stop="cycles", target_cycles=3)
        )
    return ExperimentPlan(campaign, partial(_render_table1, params))


def _render_table1(params: Mapping, results: Mapping) -> ExperimentResult:
    rows = []
    raw: dict[str, dict[str, float]] = {}
    for duration in params["durations"]:
        batch = results[f"t1-{duration}"].batch
        pre = batch.traffic_fractions(0, "prebuffer")
        re = batch.traffic_fractions(0, "rebuffer")
        raw[f"{duration:.0f}s"] = {
            "prebuffer_mean": float(np.mean(pre)),
            "prebuffer_std": float(np.std(pre)),
            "rebuffer_mean": float(np.mean(re)),
            "rebuffer_std": float(np.std(re)),
        }
        rows.append(
            {
                "duration": f"{duration:.0f} sec",
                "Pre-buffering": f"{np.mean(pre):.1%} +/- {np.std(pre):.1%}",
                "Re-buffering": f"{np.mean(re):.1%} +/- {np.std(re):.1%}",
            }
        )
    rendered = format_table(
        rows,
        title=(
            "Table 1 — fraction of traffic over WiFi, initial chunk 256 KB "
            "(paper: 60-64 % pre-buffering, 56-62 % re-buffering)"
        ),
    )
    return ExperimentResult("table1", rendered, raw)


TABLE1 = register(
    ExperimentDef(
        experiment_id="table1",
        title="WiFi traffic fraction, pre/re-buffering, 20/40/60 s",
        kind="trials",
        schema=ParamSchema(
            (
                _trials(),
                _seed(2018),
                Param(
                    "durations",
                    float,
                    (20.0, 40.0, 60.0),
                    help="pre/re-buffer durations (seconds)",
                    minimum=1.0,
                    many=True,
                ),
            )
        ),
        build=_plan_table1,
        description="WiFi byte share per phase (Table 1).",
        smoke_params={"trials": 1, "durations": (20.0,)},
    )
)


# ---------------------------------------------------------------------------
# EXP-X1 — robustness (unreported in the paper; §2/§7 motivate it)
# ---------------------------------------------------------------------------


def _crash_primary_video_host(scenario: Scenario) -> None:
    """Scenario hook: the WiFi network's first video server dies at 10 s.

    A module-level function (not a closure) so trial specs carrying it
    stay picklable for the process execution backend.
    """

    def crash():
        yield scenario.env.timeout(10.0)
        scenario.deployment.pools["wifi-net"].video_hosts[0].fail()

    scenario.env.process(crash())


def _plan_x1(params: Mapping) -> ExperimentPlan:
    """Mid-stream WiFi outage + video-server failure (§2/§7).

    (a) WiFi outage during playback: MSPlayer vs single-path WiFi.  The
    outage must overlap an ON cycle of the single-path player: with a
    40 s pre-buffer done by ~12 s and a 10 s low watermark, the first
    re-buffering cycle opens around t = 42 s, inside the 15–75 s outage
    window.  (b) primary video-server crash at 10 s: source failover
    inside a network.  Both sub-experiments (their own profiles and
    root seeds) share one campaign submission.
    """
    seed, trials = params["seed"], params["trials"]
    runner = TrialRunner(
        partial(mobility_profile, wifi_down_at=15.0, wifi_up_at=75.0),
        scenario_config=ScenarioConfig(video_duration_s=180.0),
        root_seed=seed,
        trials=trials,
    )
    runner2 = TrialRunner(
        youtube_profile,
        scenario_config=ScenarioConfig(video_duration_s=180.0),
        root_seed=seed + 1,
        trials=trials,
    )
    config = PlayerConfig()
    campaign = Campaign()
    campaign.add_run(runner, "x1-ms", runner.msplayer(config, stop="full"))
    campaign.add_run(runner, "x1-wifi", runner.singlepath(0, HTML5_CHUNK, config, stop="full"))
    campaign.add_run(
        runner2,
        "x1-crash",
        runner2.msplayer(config, stop="full"),
        scenario_hook=_crash_primary_video_host,
    )
    return ExperimentPlan(campaign, partial(_render_x1, params))


def _render_x1(params: Mapping, results: Mapping) -> ExperimentResult:
    trials = params["trials"]
    raw: dict[str, dict] = {}
    rows = []

    ms, sp = results["x1-ms"].batch, results["x1-wifi"].batch
    sp_failed = int(np.sum(np.char.startswith(sp.stop_reasons, "failed")))
    raw["wifi-outage"] = {
        "msplayer_mean_stall_s": float(np.mean(ms.total_stall)),
        "singlepath_mean_stall_s": float(np.mean(sp.total_stall)),
        "singlepath_aborted_sessions": sp_failed,
        "msplayer_failovers": int(np.sum(ms.failovers)),
    }
    rows.append(
        {
            "scenario": "WiFi outage 15-75 s",
            "MSPlayer stall (mean s)": f"{np.mean(ms.total_stall):.2f}",
            "single-path outcome": f"{sp_failed}/{trials} sessions aborted",
        }
    )

    crashed = results["x1-crash"].batch
    finished = int(np.sum(crashed.stop_reasons == "playback-finished"))
    raw["server-crash"] = {
        "mean_failovers": float(np.mean(crashed.failovers)),
        "mean_stall_s": float(np.mean(crashed.total_stall)),
        "sessions_finished": finished,
    }
    rows.append(
        {
            "scenario": "video server crash @10 s",
            "MSPlayer stall (mean s)": f"{np.mean(crashed.total_stall):.2f}",
            "single-path outcome": f"{finished}/{trials} MSPlayer sessions finished "
            f"({np.mean(crashed.failovers):.1f} failovers avg)",
        }
    )
    rendered = format_table(rows, title="EXP-X1 — robustness (mobility + server failure)")
    return ExperimentResult("x1", rendered, raw)


X1 = register(
    ExperimentDef(
        experiment_id="x1",
        title="robustness: server failure + WiFi outage",
        kind="trials",
        schema=ParamSchema((_trials(10), _seed(2019))),
        build=_plan_x1,
        description="Stall/abort behavior with and without path+source diversity.",
        smoke_params={"trials": 1},
    )
)


# ---------------------------------------------------------------------------
# EXP-X2 — source diversity vs MPTCP analogue
# ---------------------------------------------------------------------------


def _plan_x2(params: Mapping) -> ExperimentPlan:
    """Server-load concentration and start-up: 2 sources vs 1 (MPTCP-like)."""
    scenario_config = ScenarioConfig(video_duration_s=240.0, overload_threshold=2)
    runner = TrialRunner(
        youtube_profile,
        scenario_config=scenario_config,
        root_seed=params["seed"],
        trials=params["trials"],
    )
    config = PlayerConfig()
    campaign = Campaign()
    campaign.add_run(runner, "x2-ms", runner.msplayer(config))
    campaign.add_run(runner, "x2-mptcp", runner.mptcp(config, stop="prebuffer"))
    return ExperimentPlan(campaign, _render_x2)


def _render_x2(results: Mapping) -> ExperimentResult:
    ms, mp = results["x2-ms"], results["x2-mptcp"]

    def concentration(sides) -> float:
        tops = []
        for side in sides:
            served = side.server_bytes
            total = sum(served.values())
            if total:
                tops.append(max(served.values()) / total)
        return float(np.mean(tops)) if tops else 0.0

    raw = {
        "msplayer": {
            "median_startup_s": summarize(ms.startup_delays()).median,
            "peak_server_share": concentration(ms.sides),
        },
        "mptcp_like": {
            "median_startup_s": summarize(mp.startup_delays()).median,
            "peak_server_share": concentration(mp.sides),
        },
    }
    rows = [
        {
            "player": "MSPlayer (2 sources)",
            "median start-up (s)": f"{raw['msplayer']['median_startup_s']:.2f}",
            "peak server share": f"{raw['msplayer']['peak_server_share']:.0%}",
        },
        {
            "player": "MPTCP-like (1 source)",
            "median start-up (s)": f"{raw['mptcp_like']['median_startup_s']:.2f}",
            "peak server share": f"{raw['mptcp_like']['peak_server_share']:.0%}",
        },
    ]
    rendered = format_table(
        rows, title="EXP-X2 — source diversity ablation (overloadable servers)"
    )
    return ExperimentResult("x2", rendered, raw)


X2 = register(
    ExperimentDef(
        experiment_id="x2",
        title="source diversity vs single-server MPTCP analogue",
        kind="trials",
        schema=ParamSchema((_trials(10), _seed(2020))),
        build=_plan_x2,
        description="Load concentration and start-up: 2 sources vs 1.",
        smoke_params={"trials": 1},
    )
)


# ---------------------------------------------------------------------------
# EXP-X3 — estimator ablation
# ---------------------------------------------------------------------------


def _plan_x3(params: Mapping) -> ExperimentPlan:
    """Tracking error of the estimators on a bursty synthetic trace (§3.3).

    The trace alternates a stable base rate with occasional 8× bursts —
    the "large outliers due to network variation" the harmonic mean is
    chosen to resist.  Error is measured against the *sustainable* rate
    (the base), since chunk sizing should follow what the path can be
    trusted to deliver, not one lucky burst.  Each estimator's walk is
    one work unit on the engine (all share the seed, hence the trace).
    """
    campaign = Campaign()
    for name in params["estimators"]:
        campaign.add(
            [
                EstimatorTraceSpec(
                    label=name,
                    trial=0,
                    seed=params["seed"],
                    estimator=name,
                    samples=params["samples"],
                )
            ]
        )
    return ExperimentPlan(campaign, partial(_render_x3, params))


def _render_x3(params: Mapping, results: Mapping) -> ExperimentResult:
    rows = []
    raw: dict[str, float] = {}
    for name in params["estimators"]:
        error = float(results[name].batch.mean_error[0])
        raw[name] = error
        rows.append({"estimator": name, "mean |err| vs sustainable rate": f"{error:.1%}"})
    rendered = format_table(
        rows,
        title="EXP-X3 — estimator tracking error on an 8x-burst trace "
        "(harmonic damps outliers; §3.3's design rationale)",
    )
    return ExperimentResult("x3", rendered, raw)


X3 = register(
    ExperimentDef(
        experiment_id="x3",
        title="estimator ablation on bursty traces",
        kind="single",
        schema=ParamSchema(
            (
                _seed(2021),
                Param(
                    "samples",
                    int,
                    400,
                    help="trace length (first 20 samples are warm-up)",
                    minimum=30,
                ),
                Param(
                    "estimators",
                    str,
                    ESTIMATOR_CHOICES,
                    help="estimators to walk over the trace",
                    choices=ESTIMATOR_CHOICES,
                    many=True,
                ),
            )
        ),
        build=_plan_x3,
        description="Why the paper picks the harmonic mean (§3.3).",
        smoke_params={"samples": 60},
    )
)


# ---------------------------------------------------------------------------
# EXP-X6 — server-selection policies under client populations
# ---------------------------------------------------------------------------


def _plan_x6(params: Mapping) -> ExperimentPlan:
    """Load imbalance and start-up per selection policy, over replicated
    flash-crowd populations (§2's source-diversity argument at scale).

    One campaign of :class:`~repro.ext.population.PopulationSpec` work
    units: every (policy, replicate) pair is a whole ``clients``-strong
    :class:`~repro.ext.multi_client.MultiClientExperiment` population
    run as one work unit, so replicates fan out across processes while
    each population keeps its single shared environment.  Replicate
    seeds are policy-independent — every policy faces the same
    sequence of seeded populations.
    """
    experiment = MultiClientExperiment(
        youtube_profile,
        client_count=params["clients"],
        seed=params["seed"],
        video_duration_s=120.0,
        overload_threshold=2,
    )
    campaign = Campaign()
    for policy in params["policies"]:
        campaign.add(experiment.specs_for(policy, params["replicates"]))
    return ExperimentPlan(campaign, partial(_render_x6, params))


def _render_x6(params: Mapping, results: Mapping) -> ExperimentResult:
    policies = params["policies"]
    replicates, clients = params["replicates"], params["clients"]
    rows = []
    raw: dict[str, dict[str, float]] = {}
    for policy in policies:
        batch = results[policy].batch
        delays = np.asarray(results[policy].startup_delays())
        raw[policy] = {
            "imbalance_mean": float(np.mean(batch.load_imbalance)),
            "imbalance_std": float(np.std(batch.load_imbalance)),
            "median_startup_s": float(np.median(delays)),
            "p95_startup_s": float(np.quantile(delays, 0.95)),
            "total_server_mb": float(np.sum(batch.total_server_bytes) / 1e6),
            "completed": int(np.sum(batch.completed)),
            "sessions": clients * replicates,
        }
        rows.append(
            {
                "policy": policy,
                "load imbalance (max/mean)": (
                    f"{raw[policy]['imbalance_mean']:.2f} "
                    f"+/- {raw[policy]['imbalance_std']:.2f}"
                ),
                "median start-up (s)": f"{raw[policy]['median_startup_s']:.2f}",
                "p95 start-up (s)": f"{raw[policy]['p95_startup_s']:.2f}",
                "sessions": f"{raw[policy]['completed']}/{clients * replicates}",
            }
        )
    rendered = format_table(
        rows,
        title=(
            f"EXP-X6 — {len(policies)} selection policies x {replicates} "
            f"replicate populations of {clients} clients, overloadable servers"
        ),
    )
    return ExperimentResult("x6", rendered, raw)


X6 = register(
    ExperimentDef(
        experiment_id="x6",
        title="server-selection policies under replicated client populations",
        kind="population",
        schema=ParamSchema(
            (
                Param(
                    "replicates",
                    int,
                    5,
                    help="independently seeded populations per policy; each "
                    "whole population is one parallel work unit",
                    minimum=1,
                ),
                Param(
                    "clients",
                    int,
                    12,
                    help="simultaneous MSPlayer clients per population (a "
                    "flash crowd sharing one CDN deployment)",
                    minimum=1,
                ),
                _seed(2022),
                Param(
                    "policies",
                    str,
                    POLICY_CHOICES,
                    help="server-selection policies to compare",
                    choices=POLICY_CHOICES,
                    many=True,
                ),
            )
        ),
        build=_plan_x6,
        description="Flash-crowd populations per (policy, replicate) work unit.",
        smoke_params={"replicates": 1, "clients": 2},
    )
)
