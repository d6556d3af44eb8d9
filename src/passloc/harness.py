"""Experiment orchestration: scenarios, trials, saved runs, metrics, and sweep outputs.

A sweep runs one or more deployment scenarios over an SNR grid with
paired scenes: the scene seed depends only on the master seed and the
trial index, so every scenario at every SNR sees the same user and
scatterer draws and per-trial comparisons are paired. Schedule and noise
seeds additionally fold in the scenario and SNR so streams never alias.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import signal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import (
    MeasurementSet,
    RadioConfig,
    channel_vector,
    make_schedule,
    measure,
    measurement_matrix,
    synthesize_paths,
)
from .dictionary import DpDictionary, default_polar_rings
from .estimator import (EstimationResult, EstimatorConfig, polar_dictionary, run_omp_gcl,
                        run_polar_baseline, start_dictionaries)
from .geometry import (
    ArrayLayout,
    DomainError,
    Scene,
    ServiceRegion,
    Structure,
    build_mw_layout,
    build_sw_layout,
    custom_layout,
    sample_scene,
)

SWEEP_SCHEMA_VERSION = 1

SCENARIOS = ("sw", "mw", "nf", "sw2")
_SCENARIO_CODE = {name: i + 1 for i, name in enumerate(SCENARIOS)}
_STREAM_SCENE, _STREAM_SCHEDULE, _STREAM_NOISE = 0, 1, 2

DEFAULT_SNR_GRID = (5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0)


_INT_FIELDS = ("m", "n", "l", "trials", "seed", "slots_per_subarray", "g_theta", "iters",
               "nf_n", "nf_rings")
_INT_MINIMUM = {"l": 0, "iters": 1, "m": 1, "n": 1, "slots_per_subarray": 1, "nf_n": 1,
                "nf_rings": 1, "seed": 0, "trials": 1}  # g_theta: EstimatorConfig's check
_REAL_FIELDS = ("d", "frequency", "n_eff", "size_x", "size_y", "h_pa", "fixed_height", "density")


def _is_real(v) -> bool:
    """A finite number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass
class ExperimentConfig:
    """Declarative description of a sweep; serializes to/from JSON.

    Fields that configure another module take that module's default, so
    each default has one owner; nf_rings is owned here.
    """

    scenarios: tuple = ("mw",)
    mode: str = EstimatorConfig.mode
    m: int = 3
    n: int = 32
    d: float | None = None  # None -> half wavelength
    frequency: float = 28e9
    n_eff: float = RadioConfig.n_eff
    size_x: float = 30.0
    size_y: float = 30.0
    h_pa: float = 2.0
    h_range: tuple = ServiceRegion.h_range
    fixed_height: float = EstimatorConfig.fixed_height
    l: int = 0
    slots_per_subarray: int = 64
    density: float = 0.5
    snr_db: tuple = DEFAULT_SNR_GRID
    trials: int = 500
    seed: int = 0
    g_theta: int = EstimatorConfig.g_theta
    iters: int = EstimatorConfig.max_outer_iters
    nf_n: int = 96
    nf_rings: int = 16

    def __post_init__(self):
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"config field '{name}' must be an integer, got {v!r}")
            low = _INT_MINIMUM.get(name, v)
            if v < low:
                raise ValueError(f"config field '{name}' must be at least {low}, got {v}")
        for name in _REAL_FIELDS:
            v = getattr(self, name)
            if not (_is_real(v) or (name == "d" and v is None)):
                raise ValueError(f"config field '{name}' must be a finite number, got {v!r}")
        if self.d is not None and not self.d > 0.0:
            raise ValueError(f"config field 'd' must be positive, got {self.d!r}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"config field 'density' must be in (0, 1], got {self.density!r}")
        scen = tuple(str(s).lower() for s in (
            self.scenarios if isinstance(self.scenarios, (list, tuple)) else [self.scenarios]
        ))
        for s in scen:
            if s not in SCENARIOS:
                raise ValueError(f"unknown scenario '{s}'; pick from {SCENARIOS}")
        if not scen:
            raise ValueError("need at least one scenario")
        self.scenarios = scen
        if self.mode not in ("2d", "3d"):
            raise ValueError(f"config field 'mode' must be '2d' or '3d', got {self.mode!r}")
        for s in scen:  # the height fit needs three subarrays; nf runs the planar baseline
            if self.mode == "3d" and {"mw": self.m, "sw": self.m, "sw2": 2}.get(s, 3) < 3:
                raise ValueError(f"config field 'mode' is '3d', but scenario '{s}' has fewer "
                                 f"than the three subarrays height estimation needs")
        snr = self.snr_db if isinstance(self.snr_db, (list, tuple)) else [self.snr_db]
        if not all(_is_real(v) or v == math.inf for v in snr):  # +inf runs noiseless
            raise ValueError(f"config field 'snr_db' must be finite or +inf, got {self.snr_db!r}")
        self.snr_db = tuple(float(v) for v in snr)
        if not self.snr_db:
            raise ValueError("need at least one SNR point")
        if not (isinstance(self.h_range, (list, tuple)) and len(self.h_range) == 2
                and all(_is_real(v) for v in self.h_range)):
            raise ValueError(f"config field 'h_range' needs two finite numbers, got {self.h_range}")
        self.h_range = (float(self.h_range[0]), float(self.h_range[1]))
        lo, hi = self.h_range
        if self.mode == "2d" and not lo <= self.fixed_height <= hi:
            raise ValueError(f"config field 'fixed_height' must lie in h_range {self.h_range} "
                             f"in 2-D mode, got {self.fixed_height!r}")
        self.estimator_config()  # the estimator's own checks, e.g. g_theta >= 2

    @property
    def region(self) -> ServiceRegion:
        return ServiceRegion(self.size_x, self.size_y, self.h_pa, self.h_range)

    @property
    def radio(self) -> RadioConfig:
        return RadioConfig(self.frequency, self.n_eff)

    @property
    def spacing(self) -> float:
        return self.radio.wavelength / 2.0 if self.d is None else float(self.d)

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(
            region=self.region,
            mode=self.mode,
            num_paths=self.l + 1,
            max_outer_iters=self.iters,
            g_theta=self.g_theta,
            fixed_height=self.fixed_height,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scenarios"] = list(self.scenarios)
        d["snr_db"] = list(self.snr_db)
        d["h_range"] = list(self.h_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


def rmse(errors) -> float:
    """Root of the mean squared error magnitude."""
    e = np.asarray(errors, dtype=float).reshape(-1)
    if e.size == 0:
        raise ValueError("no errors to aggregate")
    return float(np.sqrt(np.mean(e * e)))


def nmse(h_true, h_est) -> float:
    """Linear normalized squared error ||h_est - h_true||^2 / ||h_true||^2."""
    t = np.asarray(h_true).reshape(-1)
    e = np.asarray(h_est).reshape(-1)
    if t.shape != e.shape:
        raise ValueError("channel vectors must have matching length")
    denom = float(np.vdot(t, t).real)
    if denom == 0.0:
        raise ValueError("true channel has zero energy")
    diff = e - t
    return float(np.vdot(diff, diff).real) / denom


def to_db(value: float) -> float:
    """10*log10, floored at -120 dB for exact zeros and tiny values."""
    if value <= 1e-12:  # 10 ** (-120 / 10), the same double
        return -120.0
    return float(10.0 * np.log10(value))


def scenario_layout(cfg: ExperimentConfig, scenario: str) -> tuple[ArrayLayout, int]:
    """Layout and total pilot slot count for a scenario under a config."""
    region, d = cfg.region, cfg.spacing
    if scenario == "mw":
        layout = build_mw_layout(region, cfg.m, cfg.n, d)
        return layout, cfg.slots_per_subarray
    if scenario == "sw":
        layout = build_sw_layout(region, cfg.m, cfg.n, d)
        return layout, cfg.slots_per_subarray * cfg.m
    if scenario == "sw2":
        layout = build_sw_layout(region, 2, cfg.n, d)
        return layout, cfg.slots_per_subarray * 2
    if scenario == "nf":
        layout = custom_layout(region, Structure.SW, [(0.0, region.size_y / 2.0)], cfg.nf_n, d)
        return layout, cfg.slots_per_subarray
    raise ValueError(f"unknown scenario '{scenario}'")


def derive_seed(master: int, trial: int, stream: int, scenario: str = "", snr_index: int = 0) -> int:
    """Documented seed-splitting: scene streams ignore scenario and SNR."""
    entropy = [int(master), int(trial), int(stream)]
    if stream != _STREAM_SCENE:
        entropy += [_SCENARIO_CODE.get(scenario, 0), int(snr_index)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass
class TrialRecord:
    """Forensic record of one (scenario, SNR, trial) estimation."""

    scenario: str
    snr_db: float
    trial: int
    scene_points: list
    positions: list
    position_error: float
    path_errors: list
    nmse_linear: float
    flags: tuple
    wall_time_s: float
    mirror_error: float | None = None  # to the truth's mirror across the guide line, if ambiguous
    failed: bool = False
    error_message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def position_error(true_point, est_point, mode: str) -> float:
    """Distance between two points: horizontal in "2d" mode, full 3-D otherwise."""
    t = np.asarray(true_point, dtype=float)
    e = np.asarray(est_point, dtype=float)
    if mode == "2d":
        return float(np.hypot(*(e[:2] - t[:2])))
    return float(np.linalg.norm(e - t))


def simulate_trial(cfg: ExperimentConfig, scenario: str, snr_db: float, snr_index: int,
                   trial: int) -> tuple:
    """(scene, layout, schedule, paths, measurements) of one trial."""
    region, radio = cfg.region, cfg.radio
    scene = sample_scene(
        region, cfg.l, derive_seed(cfg.seed, trial, _STREAM_SCENE),
        mode=cfg.mode, height=cfg.fixed_height,
    )
    layout, total_slots = scenario_layout(cfg, scenario)
    schedule = make_schedule(
        layout, total_slots, cfg.density,
        derive_seed(cfg.seed, trial, _STREAM_SCHEDULE, scenario, snr_index),
    )
    paths = synthesize_paths(layout, scene, radio)
    ms = measure(
        layout, schedule, paths, radio, snr_db,
        derive_seed(cfg.seed, trial, _STREAM_NOISE, scenario, snr_index),
    )
    return scene, layout, schedule, paths, ms


_ATOMS = {}  # scenario -> (atoms key, atoms): the atoms scenario_atoms built last for it


def scenario_atoms(cfg: ExperimentConfig, scenario: str) -> list[DpDictionary]:
    """The scene-independent atoms of a scenario's estimator, one dictionary per subarray.

    nf gets its polar dictionary with cfg.nf_rings rings and its guided
    atoms, every other scenario the OMP-GCL start dictionaries. No scene,
    seed, trial count or SNR enters them, and the dictionaries are frozen
    and their arrays read-only, so the process keeps the last ones built
    for each scenario and returns those same dictionaries, in a new list,
    while the config, with seed, trials and snr_db normalised away, is
    unchanged: run_sweep, run_trial and the CLI's estimate build them once
    per process and config. That saves the build (some 25 ms for nf's
    polar atoms) only where one process runs several sweeps or standalone
    run_trial calls of one config. A build that raises keeps nothing.
    """
    key = replace(cfg, seed=0, trials=1, snr_db=(0.0,))
    cached = _ATOMS.get(scenario)
    if cached is None or cached[0] != key:
        layout, _ = scenario_layout(cfg, scenario)
        if scenario == "nf":
            rings = default_polar_rings(cfg.region, cfg.nf_rings)
            atoms = [polar_dictionary(layout, cfg.radio, cfg.estimator_config(), rings)]
        else:
            atoms = start_dictionaries(layout, cfg.radio, cfg.estimator_config())
        cached = _ATOMS[scenario] = key, tuple(atoms)
    return list(cached[1])


def estimate(cfg: ExperimentConfig, scenario: str, ms: MeasurementSet, layout: ArrayLayout,
             atoms: list[DpDictionary]) -> EstimationResult:
    """The scenario's estimator on one trial's measurements, given scenario_atoms(cfg, scenario).

    nf runs the polar baseline; every other scenario runs OMP-GCL.
    """
    if scenario == "nf":
        return run_polar_baseline(ms, layout, cfg.radio, cfg.estimator_config(), atoms[0])
    return run_omp_gcl(ms, layout, cfg.radio, cfg.estimator_config(), atoms)


def run_trial(cfg: ExperimentConfig, scenario: str, snr_db: float, snr_index: int,
              trial: int, atoms: list[DpDictionary] | None = None) -> TrialRecord:
    """One end-to-end trial; the estimator's domain failures come back as flagged records.

    Domain failures are geometry.DomainErrors (singular geometry, an
    invalid or annihilated dictionary) and singular solves (LinAlgError);
    any other exception, a plain ValueError too, propagates. ``atoms`` are
    scenario_atoms(cfg, scenario), looked up there when not given.
    """
    if atoms is None:
        atoms = scenario_atoms(cfg, scenario)
    scene, layout, _, paths, ms = simulate_trial(cfg, scenario, snr_db, snr_index, trial)
    t0 = time.perf_counter()
    try:
        result = estimate(cfg, scenario, ms, layout, atoms)
    except (DomainError, np.linalg.LinAlgError) as exc:  # record, do not abort the sweep
        return TrialRecord(
            scenario=scenario, snr_db=snr_db, trial=trial,
            scene_points=scene.points.tolist(), positions=[],
            position_error=float("nan"), path_errors=[], nmse_linear=float("nan"),
            flags=("trial-failed",), wall_time_s=time.perf_counter() - t0,
            failed=True, error_message=f"{type(exc).__name__}: {exc}",
        )
    wall = time.perf_counter() - t0

    err_user = position_error(scene.user, result.paths[0].position, cfg.mode)
    path_errors = [err_user]
    live = [p for p in result.paths[1:] if not p.absent]
    remaining = list(range(scene.l))
    for p in live:  # greedy nearest-truth matching for scattered paths
        if not remaining:
            break
        dists = [position_error(scene.scatterers[i], p.position, cfg.mode) for i in remaining]
        k = int(np.argmin(dists))
        path_errors.append(float(dists[k]))
        remaining.pop(k)

    mirror_error = None
    if "ambiguous" in result.flags:  # one guide line at y_0 cannot tell y from 2 y_0 - y
        mirror = scene.user * [1.0, -1.0, 1.0] + [0.0, 2.0 * layout.reference_xy[:, 1].min(), 0.0]
        mirror_error = position_error(mirror, result.paths[0].position, cfg.mode)
    h_true = channel_vector(paths).reshape(-1)
    h_est = result.channels.reshape(-1)
    return TrialRecord(
        scenario=scenario, snr_db=snr_db, trial=trial,
        scene_points=scene.points.tolist(),
        positions=[p.position.tolist() for p in result.paths],
        position_error=err_user, path_errors=path_errors,
        nmse_linear=nmse(h_true, h_est), flags=result.flags, wall_time_s=wall,
        mirror_error=mirror_error,
    )


_RUN_TRIAL = run_trial  # the module's own, told apart from a wrapper by _cell_trials


# --- saved runs -----------------------------------------------------------------

RUN_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class SavedRun:
    """A trial read back by load_run: its experiment and what the estimator sees."""

    config: ExperimentConfig  # narrowed to one scenario at one SNR
    trial: int
    layout: ArrayLayout
    measurements: MeasurementSet
    scene: Scene


def save_run(dirpath, cfg: ExperimentConfig, trial: int) -> MeasurementSet:
    """Simulate one trial of cfg's first scenario at its first SNR and save it.

    measurements.csv holds the pilots; meta.json holds the config narrowed
    to that cell, the trial index, each subarray's activation bits in
    observation order, the noise variance and mean signal power, and the
    scene. Region, radio, layout and SNR follow from the config. Floats are
    written with shortest-round-trip repr, so load_run rebuilds the
    measurements bit for bit.
    """
    cell = replace(cfg, scenarios=[cfg.scenarios[0]], snr_db=[cfg.snr_db[0]])
    scene, _, schedule, _, ms = simulate_trial(cell, cell.scenarios[0], cell.snr_db[0], 0, trial)
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    lines = [f"# passloc measurements v{RUN_SCHEMA_VERSION}", "subarray,slot,re_y,im_y"]
    for m, (slots, y) in enumerate(zip(ms.slot_ids, ms.y)):
        lines += [f"{m},{int(t)},{float(v.real)!r},{float(v.imag)!r}" for t, v in zip(slots, y)]
    (d / "measurements.csv").write_text("\n".join(lines) + "\n")
    meta = {
        "version": RUN_SCHEMA_VERSION,
        "experiment": {"config": cell.to_dict(), "trial": trial},
        "activation_bits": {str(m): ["".join(map(str, schedule.activation[t, m])) for t in slots]
                            for m, slots in enumerate(ms.slot_ids)},
        "noise": {"noise_variance": ms.noise_variance, "mean_signal_power": ms.mean_signal_power},
        "scene": {"user": scene.user.tolist(), "scatterers": scene.scatterers.tolist()},
    }
    (d / "meta.json").write_text(json.dumps(meta, indent=2))
    return ms


def load_run(dirpath) -> SavedRun:
    """Read a directory written by save_run.

    The layout comes from scenario_layout on the saved config, and each
    subarray's W is measurement_matrix over its own saved activation rows.
    The pilots are outside input: a subarray index outside the layout, an
    activation-row count that differs from the observation count, or a bit
    string that is not N characters of 0 and 1 raises a ValueError naming
    the subarray. Runs of another schema raise a ValueError naming theirs.
    """
    d = Path(dirpath)
    meta = json.loads((d / "meta.json").read_text())
    version = meta.get("version")
    if version != RUN_SCHEMA_VERSION:
        raise ValueError(f"{d} holds measurement schema v{version}, this version reads "
                         f"v{RUN_SCHEMA_VERSION}; re-run `passloc simulate`")
    cfg = ExperimentConfig.from_dict(meta["experiment"]["config"])
    layout, _ = scenario_layout(cfg, cfg.scenarios[0])
    n = layout.pas_per_subarray

    def subarray(index) -> int:
        m = int(index)
        if not 0 <= m < layout.m:
            raise ValueError(f"{d}: subarray {m} lies outside the {layout.m}-subarray layout")
        return m

    observed = [[] for _ in range(layout.m)]
    for line in (d / "measurements.csv").read_text().splitlines():
        if line and not line.startswith(("#", "subarray")):
            m_s, t_s, re_s, im_s = line.split(",")
            observed[subarray(m_s)].append((int(t_s), complex(float(re_s), float(im_s))))
    bits = {subarray(m_s): rows for m_s, rows in meta["activation_bits"].items()}
    ys, ws, slot_ids = [], [], []
    for m, (sub, obs) in enumerate(zip(layout.subarrays, observed)):
        rows = bits.get(m, [])
        if not obs or len(rows) != len(obs):
            raise ValueError(f"{d}: subarray {m} has {len(rows)} activation rows for "
                             f"{len(obs)} observations")
        for row in rows:
            if not (isinstance(row, str) and len(row) == n and set(row) <= {"0", "1"}):
                raise ValueError(f"{d}: subarray {m} has activation row {row!r}, "
                                 f"not {n} characters of 0 and 1")
        act = np.frombuffer("".join(rows).encode(), dtype=np.uint8).reshape(-1, n) - ord("0")
        ws.append(measurement_matrix(sub, act, cfg.radio))
        slot_ids.append(np.array([t for t, _ in obs], dtype=int))
        ys.append(np.array([v for _, v in obs], dtype=complex))
    noise = meta["noise"]
    ms = MeasurementSet(tuple(ys), tuple(ws), tuple(slot_ids), float(noise["noise_variance"]),
                        cfg.snr_db[0], float(noise["mean_signal_power"]))
    scene = Scene(np.array(meta["scene"]["user"]),
                  np.array(meta["scene"]["scatterers"]).reshape(-1, 3))
    return SavedRun(cfg, int(meta["experiment"]["trial"]), layout, ms, scene)


@dataclass
class SweepResult:
    """Aggregates plus the per-trial records."""

    config: ExperimentConfig
    rmse_rows: list = field(default_factory=list)
    nmse_rows: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def write_csv(self, outdir) -> None:
        """rmse.csv, nmse.csv and meta.json, and records.jsonl: one TrialRecord per line, in
        trial order."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        lines = [f"# passloc sweep v{SWEEP_SCHEMA_VERSION}",
                 "scenario,snr_db,rmse_m,median_m,flag_rate,total_slots"]
        for r in self.rmse_rows:
            lines.append(
                f"{r['scenario']},{r['snr_db']!r},{r['rmse_m']!r},"
                f"{r['median_m']!r},{r['flag_rate']!r},{r['total_slots']}"
            )
        (out / "rmse.csv").write_text("\n".join(lines) + "\n")
        lines = [f"# passloc sweep v{SWEEP_SCHEMA_VERSION}", "scenario,snr_db,nmse_db"]
        for r in self.nmse_rows:
            lines.append(f"{r['scenario']},{r['snr_db']!r},{r['nmse_db']!r}")
        (out / "nmse.csv").write_text("\n".join(lines) + "\n")
        # error_message is "<exception class>: <message>" (run_trial)
        errors = Counter(r.error_message.partition(":")[0] for r in self.records if r.failed)
        resolved = defaultdict(list)  # per cell, over its ambiguous trials
        for r in self.records:
            if r.mirror_error is not None:
                resolved[r.scenario, r.snr_db].append(min(r.position_error, r.mirror_error))
        meta = {
            "version": SWEEP_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "trials": self.config.trials,
            "failed_trials": errors.total(),
            "failed_by_error": dict(sorted(errors.items())),
            "mirror_resolved": [{"scenario": scen, "snr_db": snr, "ambiguous_trials": len(e),
                                 "median_m": float(np.median(e))}
                                for (scen, snr), e in resolved.items()],
        }
        (out / "meta.json").write_text(json.dumps(meta, indent=2))
        (out / "records.jsonl").write_text("".join(json.dumps(r.to_dict()) + "\n"
                                                   for r in self.records))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the machine's count without one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _blas_thread_setters() -> list | None:
    """The thread-count setter of every BLAS library this process has loaded.

    A BLAS library is a loaded lib*.so whose name holds blas, blis or mkl;
    Python extensions that call one (scipy's _fblas) are not. None when the libraries cannot be listed (no /proc/self/maps, as on
    macOS), when none is loaded, or when one exports none of the OpenBLAS
    setters (MKL, BLIS, an OpenBLAS built without them). A pool needs the
    setters: a worker per usable CPU, each with its BLAS on its default
    threads, spins those threads on the CPUs the other workers need, and an
    nf sweep on two CPUs ran 4x slower than serially.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.rsplit(None, 1)[-1] for line in fh.read().splitlines()
                     if "blas" in line or "blis" in line or "mkl" in line}
        libs = [path for path in paths if os.path.basename(path).startswith("lib")]
        setters = []
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            setter = next((getattr(lib, n) for n in _BLAS_SETTERS if hasattr(lib, n)), None)
            if setter is None:
                return None
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setters.append(setter)
    except OSError:
        return None
    return setters or None


_worker_scenario = None  # (cfg, scenario, atoms) in a pool worker, set by _start_worker


def _start_worker(cfg: ExperimentConfig, scenario: str, atoms: list[DpDictionary],
                  blas_setters: list) -> None:
    global _worker_scenario
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    for setter in blas_setters:
        setter(1)
    _worker_scenario = cfg, scenario, atoms


def _worker_trial(task: tuple) -> TrialRecord:
    cfg, scenario, atoms = _worker_scenario
    snr_db, snr_index, trial = task
    return run_trial(cfg, scenario, snr_db, snr_index, trial, atoms)


@contextmanager
def _cell_trials(cfg: ExperimentConfig, scenario: str, atoms: list[DpDictionary]):
    """A function from (snr_db, snr_index) to that cell's trial records, in trial order.

    The trials run on a fork pool of min(usable CPUs, cfg.trials) workers,
    which inherit cfg and the atoms instead of receiving them pickled and
    run their BLAS on one thread each. They run serially in this process
    when that is one worker, when fork is unavailable, when the BLAS threads
    cannot be capped (_blas_thread_setters), or when ``run_trial`` has been
    rebound: a wrapper put on it, such as a tracer's, keeps what it records
    in the process that calls it, and a worker's copy would be lost. The
    pool is torn down on leaving the block, however it is left.
    """
    workers = min(_usable_cpus(), cfg.trials)
    if workers > 1 and run_trial is _RUN_TRIAL:
        import multiprocessing  # only here: a serial sweep never pays for its import

        setters = ("fork" in multiprocessing.get_all_start_methods()
                   and _blas_thread_setters())
        if setters:
            pool = multiprocessing.get_context("fork").Pool(
                workers, _start_worker, (cfg, scenario, atoms, setters))
            try:
                yield lambda snr_db, snr_index: pool.imap(
                    _worker_trial, [(snr_db, snr_index, t) for t in range(cfg.trials)])
            finally:
                pool.terminate()
                pool.join()
            return
    yield lambda snr_db, snr_index: (run_trial(cfg, scenario, snr_db, snr_index, t, atoms)
                                     for t in range(cfg.trials))


def run_sweep(cfg: ExperimentConfig, progress=None) -> SweepResult:
    """Full sweep over scenarios, SNR grid, and paired trials.

    Aggregates per (scenario, SNR): RMSE and median of the user position
    error over non-failed trials, the flag rate (any flag or failure),
    linear-mean NMSE in dB, and the pilot slot count; the per-trial records
    are kept. Raises if more than half the trials of any cell fail.

    Each scenario's atoms come from scenario_atoms, which builds them once
    per process and config, so back-to-back sweeps that differ only in
    seed, trials or SNR share them. The scenario's trials then run on
    min(usable CPUs, cfg.trials) forked worker processes, which inherit
    the atoms; the usable CPUs are this process's affinity mask
    (``taskset -c 0`` runs a sweep serially, as does a one-trial sweep). Pooling is Linux and OpenBLAS
    only: it needs fork, /proc/self/maps and an OpenBLAS thread setter in
    every loaded BLAS, and without them, or with ``run_trial`` rebound by a
    tracer, the sweep runs serially (see _cell_trials). Records come back
    and reach ``progress`` in trial order, so the aggregates, CSVs and
    records equal a serial sweep's, wall times aside. A programming error
    in a worker reaches the caller with its class.
    """
    result = SweepResult(config=cfg)
    for scenario in cfg.scenarios:
        _, total_slots = scenario_layout(cfg, scenario)
        atoms = scenario_atoms(cfg, scenario)
        with _cell_trials(cfg, scenario, atoms) as trials:
            for snr_index, snr in enumerate(cfg.snr_db):
                records = []
                for rec in trials(snr, snr_index):
                    records.append(rec)
                    if progress is not None:
                        progress(rec)
                ok = [r for r in records if not r.failed]
                if len(ok) < cfg.trials / 2:
                    raise RuntimeError(
                        f"scenario {scenario} at {snr} dB: {cfg.trials - len(ok)} of "
                        f"{cfg.trials} trials failed"
                    )
                errors = np.array([r.position_error for r in ok])
                flag_rate = float(np.mean([bool(r.flags) or r.failed for r in records]))
                result.rmse_rows.append({
                    "scenario": scenario, "snr_db": snr, "rmse_m": rmse(errors),
                    "median_m": float(np.median(errors)), "flag_rate": flag_rate,
                    "total_slots": total_slots,
                })
                result.nmse_rows.append({
                    "scenario": scenario, "snr_db": snr,
                    "nmse_db": to_db(float(np.mean([r.nmse_linear for r in ok]))),
                })
                result.records.extend(records)
    return result
