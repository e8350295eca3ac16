"""Calibration: fitting model constants to the paper's Table II.

The paper publishes measurement *ranges*, not model parameters.  This
module recovers a parameter set under which the simulator reproduces
those ranges:

1. **Processing loads.**  ``CPU(m_i) = Tp_mid × CPU_bench`` where the
   benchmark device is the one hosting the majority of the app's
   microservices in Table III (medium for video, small for text) — the
   documented assumption about where ``Tp`` was measured.
2. **Input payloads and warm fractions.**  The benchmark-device slack
   ``CT_mid − Tp_mid − startup`` is what deployment + data transfer
   took.  When it exceeds a cold full-image pull, the surplus becomes
   the service's benchmark input payload (camera stream, S3 dataset,
   upstream artefacts): ``input_mb = surplus × BW_ingress / 8``.  When
   the slack is *smaller* than a cold pull — true for the infer/score
   services and the text trains, whose published CT is physically too
   short for their image size at any plausible bandwidth — the
   benchmarked pull must have been partially warm (layers shared with
   a previously pulled sibling image, e.g. HA/LA pairs), and the
   deficit is fitted as the image's ``warm_fraction``.
3. **Power models.**  Per device, bounded least squares
   (``scipy.optimize.lsq_linear``) over the 12 microservices fits
   ``EC ≈ P_static·CT + P_pull·Td + P_transfer·Tc + P_compute·Tp``
   with floors on the static/pull/transfer terms (a zero static or
   pull power would make registry choice energy-neutral, which both
   physics and the paper's Fig. 3b deltas contradict).
4. **Compute intensities.**  A per-(microservice, device) multiplier on
   the compute power absorbs the remaining EC residual (clamped), so
   per-service simulated energy matches the published midpoints —
   physically: different workloads draw different package power.

Registry channel constants encode the reproduction's key insight: the
paper's pure-bandwidth deployment model cannot generate its own
Table III (a hybrid split requires *some* asymmetry), so hub channels
carry a realistic per-pull startup overhead (auth + manifest round
trips, modelled as channel RTT) while the LAN-local regional registry's
is negligible.  With near-equal bandwidths this makes the hub win on
large images over fast links and the regional registry win on small
images and on the weaker device — exactly Table III's split, with the
sub-percent energy deltas of Fig. 3b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from ..devices.specs import MEDIUM_SPEED_MIPS, SMALL_SPEED_MIPS
from ..model.device import PowerModel
from .table2 import ALL_ROWS, TEXT, VIDEO, BenchmarkRow, logical_image


@dataclass(frozen=True)
class CalibrationConfig:
    """Tunable constants of the calibration (ablation knobs)."""

    #: Docker Hub effective bandwidth per device [Mbit/s].  The CDN PoP
    #: serves the wired medium box slightly faster than the regional
    #: registry does; on the wireless Pi segment both are equal.
    hub_bw_mbps: Mapping[str, float] = field(
        default_factory=lambda: {"medium": 44.0, "small": 43.5}
    )
    #: Regional registry bandwidth per device [Mbit/s].
    regional_bw_mbps: Mapping[str, float] = field(
        default_factory=lambda: {"medium": 43.4, "small": 43.5}
    )
    #: Per-pull startup overhead (DNS/auth/manifest round trips).  The
    #: hub's is larger (WAN round trips); this is what makes the
    #: regional registry win on small images and on the weaker device,
    #: producing Table III's hybrid split with Fig. 3b's tiny deltas.
    hub_startup_s: float = 1.5
    regional_startup_s: float = 0.3
    #: External-ingress bandwidth per device [Mbit/s].
    ingress_bw_mbps: Mapping[str, float] = field(
        default_factory=lambda: {"medium": 200.0, "small": 150.0}
    )
    #: Device↔device LAN bandwidth [Mbit/s].
    device_bw_mbps: float = 100.0
    #: Device processing speeds [MI/s].
    speed_mips: Mapping[str, float] = field(
        default_factory=lambda: {
            "medium": MEDIUM_SPEED_MIPS,
            "small": SMALL_SPEED_MIPS,
        }
    )
    #: Which device each application was benchmarked on (Table III
    #: majority assumption).
    bench_device: Mapping[str, str] = field(
        default_factory=lambda: {VIDEO: "medium", TEXT: "small"}
    )
    #: Clamp bounds for the per-service compute-intensity multiplier.
    intensity_bounds: Tuple[float, float] = (0.05, 50.0)
    #: Lower bounds on (static, pull, transfer, compute) watts in the
    #: power fit — keeps deployment time energy-relevant on both
    #: devices (pyRAPL never reads a 0 W idle package).
    power_floors_w: Tuple[float, float, float, float] = (0.3, 0.2, 0.1, 0.0)
    #: Upper bounds on (static, pull, transfer) watts per device.  The
    #: medium device is metered with pyRAPL, which sees only the CPU
    #: package: its idle/pull draw is a fraction of a watt, and capping
    #: it keeps the registry-choice energy deltas at the paper's
    #: sub-percent scale.  The wall-metered small device is unbounded.
    power_ceilings_w: Mapping[str, Tuple[Optional[float], Optional[float], Optional[float]]] = field(
        default_factory=lambda: {
            "medium": (0.4, 0.3, 0.2),
            "small": (None, None, None),
        }
    )

    def hub_deploy_s(self, device: str, size_gb: float) -> float:
        """Simulated cold ``Td`` from the hub (startup + bytes/BW)."""
        return self.hub_startup_s + size_gb * 8000.0 / self.hub_bw_mbps[device]


@dataclass(frozen=True)
class CalibratedService:
    """Fitted per-microservice constants."""

    application: str
    service: str
    name: str  # globally unique logical name, e.g. "vp-ha-train"
    size_gb: float
    cpu_mi: float
    input_mb: float
    warm_fraction: float = 0.0

    @property
    def cold_pull_gb(self) -> float:
        return self.size_gb * (1.0 - self.warm_fraction)


@dataclass
class Calibration:
    """Complete fitted parameter set."""

    config: CalibrationConfig
    services: Dict[str, CalibratedService]  # keyed by logical name
    power: Dict[str, PowerModel]  # keyed by device name
    intensities: Dict[Tuple[str, str], float]  # (logical name, device)
    fit_residual_j: Dict[str, float]  # per-device nnls residual norm

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def service(self, application: str, service: str) -> CalibratedService:
        return self.services[logical_image(application, service)]

    def intensity(self, name: str, device: str) -> float:
        """IntensityFn-compatible lookup (1.0 for unknown pairs)."""
        return self.intensities.get((name, device), 1.0)


#: Fraction of each service's EC budget the non-compute (static + pull
#: + transfer) terms may consume.  Keeping headroom guarantees the
#: per-service compute intensity never clamps, so every EC midpoint is
#: reproducible exactly.
_FIXED_BUDGET_FRACTION = 0.85


def _fit_power(
    rows: List[BenchmarkRow],
    device: str,
    cfg: CalibrationConfig,
    services: Mapping[str, CalibratedService],
) -> Tuple[PowerModel, float]:
    """Constrained fit of the four power coefficients for one device.

    Stage 1 (LP): choose (static, pull, transfer) watts as large as
    possible — physically, attribute as much energy as defensible to
    the non-compute phases — subject to every service's fixed energy
    staying under :data:`_FIXED_BUDGET_FRACTION` of its published EC
    midpoint, and to the configured floors.  Stage 2: a one-parameter
    least squares assigns the compute power; the per-service intensity
    multipliers then absorb the (guaranteed non-negative) residuals.
    """
    design: List[List[float]] = []
    target: List[float] = []
    for r in rows:
        svc = services[logical_image(r.application, r.service)]
        td = cfg.hub_deploy_s(device, svc.cold_pull_gb)
        tc = svc.input_mb * 8.0 / cfg.ingress_bw_mbps[device]
        tp = svc.cpu_mi / cfg.speed_mips[device]
        design.append([td + tc + tp, td, tc, tp])
        target.append(r.ec_for(device).mid)
    design_arr = np.asarray(design)
    target_arr = np.asarray(target)

    fixed_cols = design_arr[:, :3]  # CT, Td, Tc
    budget = _FIXED_BUDGET_FRACTION * target_arr
    floors = np.asarray(cfg.power_floors_w[:3])
    ceilings = cfg.power_ceilings_w.get(device, (None, None, None))
    # Maximise total fixed-phase energy (relative weighting keeps the
    # small rows from being dominated) within every service's budget.
    objective = -(fixed_cols / target_arr[:, None]).sum(axis=0)
    lp = linprog(
        c=objective,
        A_ub=fixed_cols,
        b_ub=budget,
        bounds=list(zip(floors, ceilings)),
        method="highs",
    )
    if not lp.success:
        raise RuntimeError(
            f"power fit infeasible for {device!r}: {lp.message} "
            f"(floors {tuple(floors)} exceed some service's EC budget)"
        )
    static, pull, transfer = (float(v) for v in lp.x)

    residual = target_arr - fixed_cols @ lp.x  # >= 0.15 * target by LP
    tp_col = design_arr[:, 3]
    compute = float(np.sum(residual * tp_col) / np.sum(tp_col * tp_col))
    rms = float(
        np.sqrt(np.mean((residual - compute * tp_col) ** 2))
    )
    return (
        PowerModel(
            static_watts=static,
            compute_watts=max(compute, cfg.power_floors_w[3]),
            pull_watts=pull,
            transfer_watts=transfer,
        ),
        rms,
    )


def calibrate(config: Optional[CalibrationConfig] = None) -> Calibration:
    """Run the full calibration pipeline against Table II."""
    cfg = config or CalibrationConfig()
    devices = list(cfg.speed_mips)

    # Steps 1–2: loads, input payloads, and warm fractions.
    services: Dict[str, CalibratedService] = {}
    for r in ALL_ROWS:
        name = logical_image(r.application, r.service)
        bench = cfg.bench_device[r.application]
        cpu = r.tp_s.mid * cfg.speed_mips[bench]
        slack_s = max(0.0, r.ct_s.mid - r.tp_s.mid - cfg.hub_startup_s)
        cold_pull_s = r.size_gb * 8000.0 / cfg.hub_bw_mbps[bench]
        if slack_s >= cold_pull_s:
            payload = (slack_s - cold_pull_s) * cfg.ingress_bw_mbps[bench] / 8.0
            warm = 0.0
        else:
            payload = 0.0
            warm = 1.0 - slack_s / cold_pull_s
        services[name] = CalibratedService(
            application=r.application,
            service=r.service,
            name=name,
            size_gb=r.size_gb,
            cpu_mi=cpu,
            input_mb=payload,
            warm_fraction=warm,
        )

    # Step 3: per-device power models.
    power: Dict[str, PowerModel] = {}
    residuals: Dict[str, float] = {}
    for device in devices:
        power[device], residuals[device] = _fit_power(
            ALL_ROWS, device, cfg, services
        )

    # Step 4: per-(service, device) compute intensity.
    lo, hi = cfg.intensity_bounds
    intensities: Dict[Tuple[str, str], float] = {}
    for r in ALL_ROWS:
        name = logical_image(r.application, r.service)
        svc = services[name]
        for device in devices:
            p = power[device]
            td = cfg.hub_deploy_s(device, svc.cold_pull_gb)
            tc = svc.input_mb * 8.0 / cfg.ingress_bw_mbps[device]
            tp = svc.cpu_mi / cfg.speed_mips[device]
            fixed = (
                p.static_watts * (td + tc + tp)
                + p.pull_watts * td
                + p.transfer_watts * tc
            )
            compute_j = p.compute_watts * tp
            if compute_j <= 0:
                intensities[(name, device)] = 1.0
                continue
            scale = (r.ec_for(device).mid - fixed) / compute_j
            intensities[(name, device)] = float(np.clip(scale, lo, hi))

    return Calibration(
        config=cfg,
        services=services,
        power=power,
        intensities=intensities,
        fit_residual_j=residuals,
    )
