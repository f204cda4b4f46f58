"""Experiment orchestration: configs, splits, score tables, CLI commands.

Every command is a pure function of its config and input files: given the
same bytes in, it writes the same bytes out. Randomness is routed through
per-stage offsets of the master seed so that, say, changing the number of
posterior samples cannot perturb the data split.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections.abc import Callable

import numpy as np

from .dataio import format_float, gen_synthetic, load_csv, parse_rows
from .errors import (
    BatchTooLarge,
    ConfigError,
    InfoselectError,
    LengthMismatch,
    MissingLabels,
    PoolExhausted,
)
from .glm import CATEGORICAL, GAUSSIAN, Dataset, FitInfo, GlmModel, Head, map_fit
from .posterior import build_posterior
from .prediction import draw_posterior_samples, mc_pool_scores, spearman
from .scores import (
    Scorer,
    egl_pool_scores,
    eig_pool_scores,
    epig_pool_scores,
    grand_pool_scores,
    jepig_pool_scores,
)
from .selection import (
    BAIT_FORWARD_MULTIPLIER,
    MAXIMIZE,
    MINIMIZE,
    SelectionResult,
    badge_kmeanspp,
    bait_forward_backward,
    greedy_logdet,
    random_batch,
    top_k,
)
from .similarity import HARD, JacobianDataMatrix, build_data_matrix, eig_via_similarity_pool

# Stage offsets added to the master seed. Each pipeline stage draws from
# its own stream, so enlarging one stage's consumption (more MC samples,
# more rounds) leaves every other stage's draws untouched.
DATA_SEED = 101
SPLIT_SEED = 137
SAMPLE_SEED = 211
SELECT_SEED = 307
LABEL_SEED = 401


@dataclasses.dataclass
class _Run:
    """The inputs of one scoring or selection call.

    `once` memoizes by key, so the work several methods share (the posterior
    draws, the Monte Carlo pass, a weight-space family) runs once per call.
    """

    scorer: Scorer
    pool: np.ndarray
    eval_xs: np.ndarray
    mc_samples: int
    seed: int
    pool_labels: np.ndarray | None
    methods: tuple[str, ...] = ()
    done: dict = dataclasses.field(default_factory=dict)

    def once(self, key, compute):
        if key not in self.done:
            self.done[key] = compute()
        return self.done[key]

    def samples(self):
        return self.once("samples", lambda: draw_posterior_samples(
            self.scorer.posterior, self.mc_samples, self.seed + SAMPLE_SEED))

    def mc(self, name: str) -> np.ndarray:
        # One pass gives both columns; an empty eval set fails under epig_pred.
        with_epig = name == "epig_pred" or (
            "epig_pred" in self.methods and np.size(self.eval_xs) > 0
        )
        ev = self.eval_xs if with_epig else None
        bald, epig = self.once(("mc", with_epig), lambda: mc_pool_scores(
            self.samples(), self.scorer.model.head, self.pool, ev))
        return epig if name == "epig_pred" else bald

    def labels(self) -> np.ndarray:
        if self.pool_labels is None:
            raise MissingLabels("grand scores labeled data only")
        return self.pool_labels


@dataclasses.dataclass(frozen=True)
class Method:
    """One score column: its orientation and how a _Run computes it."""

    orientation: str
    compute: Callable[[_Run], np.ndarray]
    categorical_only: bool = False  # Monte Carlo estimators enumerate classes
    default: bool = True


def _family(family: str, orientation: str, pool_scores) -> dict[str, Method]:
    """The _logdet and _trace rows of a weight-space family, computed once."""
    return {
        f"{family}_{kind}": Method(
            orientation, lambda run, i=i: run.once(family, lambda: pool_scores(run))[i]
        )
        for i, kind in enumerate(("logdet", "trace"))
    }


# The one list of score methods. The transductive proxies approximate a
# conditional entropy and rank smaller-is-better; correlation and top-k negate
# them first. Rows call this module's names at call time, so wrapping one of
# them (as the benchmark's tracer does) takes hold.
SCORE_METHODS: dict[str, Method] = {
    "bald_pred": Method(MAXIMIZE, lambda run: run.mc("bald_pred"), categorical_only=True),
    "epig_pred": Method(MAXIMIZE, lambda run: run.mc("epig_pred"), categorical_only=True),
    **_family("eig", MAXIMIZE, lambda run: eig_pool_scores(run.scorer, run.pool)),
    **_family("epig", MINIMIZE,
              lambda run: epig_pool_scores(run.scorer, run.pool, run.eval_xs)),
    **_family("jepig", MINIMIZE,
              lambda run: jepig_pool_scores(run.scorer, run.pool, run.eval_xs)),
    "eig_logdet_sim": Method(MAXIMIZE, lambda run: eig_via_similarity_pool(
        run.scorer.model, run.pool, run.scorer.posterior.precision,
        run.seed + LABEL_SEED + np.arange(run.pool.shape[0]))),
    "egl": Method(MAXIMIZE, lambda run: egl_pool_scores(run.scorer, run.pool),
                  default=False),
    "grand": Method(MAXIMIZE, lambda run: grand_pool_scores(
        run.scorer, run.pool, run.labels(), run.samples().weights), default=False),
}

SCORE_ORIENTATIONS = {name: m.orientation for name, m in SCORE_METHODS.items()}
DEFAULT_METHODS = tuple(name for name, m in SCORE_METHODS.items() if m.default)


def _categorical_only(name: str) -> bool:
    """Whether a score or top_k selector needs the categorical head."""
    method = SCORE_METHODS.get(name.removeprefix("top_k_"))
    return method is not None and method.categorical_only


def default_methods(head: str) -> tuple[str, ...]:
    """DEFAULT_METHODS less those the head cannot score."""
    return tuple(m for m in DEFAULT_METHODS if head != GAUSSIAN or not _categorical_only(m))


def _top_k(name: str):
    def select(run, k, seed):
        col = compute_scores((name,), run.scorer, run.pool, run.eval_xs,
                             mc_samples=run.mc_samples, seed=run.seed,
                             pool_labels=run.pool_labels)[name]
        return top_k(-col if SCORE_ORIENTATIONS[name] == MINIMIZE else col, k)
    return select


def _badge(run, k, seed):
    """badge_kmeanspp on the pool's hard-label gradients (no rows from an empty pool)."""
    g = (build_data_matrix(run.scorer.model, Dataset(run.pool), HARD) if len(run.pool)
         else JacobianDataMatrix(np.empty((0, run.scorer.num_weights)), HARD))
    return badge_kmeanspp(g, k, seed=seed)


# The one list of selectors: select(run, k, seed) -> SelectionResult, with
# seed the selection stage's stream; top_k_<score> ranks one score column.
SELECTORS = {
    **{
        f"greedy_{obj}_logdet": lambda run, k, seed, obj=obj: greedy_logdet(
            run.scorer, run.pool, k, objective=obj, eval_xs=run.eval_xs)
        for obj in ("eig", "epig", "jepig")
    },
    "bait": lambda run, k, seed: bait_forward_backward(
        run.scorer, run.pool, k, run.eval_xs),
    "badge": _badge,
    "random": lambda run, k, seed: random_batch(run.pool.shape[0], k, seed),
    **{f"top_k_{name}": _top_k(name) for name in SCORE_METHODS},
}
SELECT_METHODS = tuple(SELECTORS)

EVAL_SOURCES = ("disjoint", "pool")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description shared by all five commands.

    `data` / `model` are optional paths; without `data` a synthetic set is
    generated from the seed, without `model` the train split is fit
    in-process. `lam` serializes as "lambda". Unset `methods` become
    `default_methods(head)`.
    """

    seed: int = 0
    head: str = CATEGORICAL
    classes: int = 10
    dim: int = 16
    n: int = 2000
    class_sep: float = 2.0
    lam: float = 1.0
    train_size: int = 80
    pool_size: int = 1000
    eval_size: int = 200
    eval_source: str = "disjoint"
    methods: tuple[str, ...] | None = None
    mc_samples: int = 1000
    method: str = "greedy_eig_logdet"
    batch_size: int = 10
    rounds: int = 5
    data: str | None = None
    model: str | None = None
    out: str = "."

    def __post_init__(self):
        if self.methods is None:
            object.__setattr__(self, "methods", default_methods(self.head))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a flat JSON object")
        kwargs = {}
        for key, value in raw.items():
            attr = _FIELD_KEYS.get(key)
            if attr is None:
                raise ConfigError(f"unknown config field {key!r}")
            if attr == "methods" and isinstance(value, str):
                value = [v for v in value.split(",") if v]
            if attr == "methods" and isinstance(value, (list, tuple)):
                value = tuple(str(v) for v in value)
            else:
                _check_type(key, value, getattr(cls, attr))
            kwargs[attr] = value
        config = cls(**kwargs)
        config.validate()
        return config

    def to_dict(self) -> dict:
        doc = {key: getattr(self, attr) for key, attr in _FIELD_KEYS.items()}
        return {**doc, "methods": list(self.methods)}

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def validate(self):
        def require(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        require(0 <= self.seed < 2**32, "seed must be in [0, 2**32)")
        require(self.head in (CATEGORICAL, GAUSSIAN), f"unknown head {self.head!r}")
        require(self.classes >= 2, "classes must be >= 2")
        require(self.dim >= 1, "dim must be >= 1")
        require(self.n >= 1, "n must be >= 1")
        require(self.class_sep >= 0.0, "class_sep must be >= 0")
        require(self.class_sep < np.inf, "class_sep must be finite")
        require(self.lam > 0.0, "lambda must be > 0")
        require(self.lam < np.inf, "lambda must be finite")
        require(self.train_size >= 1, "train_size must be >= 1")
        require(self.pool_size >= 0, "pool_size must be >= 0")
        require(self.eval_size >= 0, "eval_size must be >= 0")
        require(
            self.eval_source in EVAL_SOURCES,
            f"eval_source must be one of {EVAL_SOURCES}",
        )
        require(len(self.methods) > 0, "methods must be nonempty")
        for name in self.methods:
            require(
                name in SCORE_ORIENTATIONS,
                f"unknown score method {name!r}; known: {sorted(SCORE_ORIENTATIONS)}",
            )
        require(len(set(self.methods)) == len(self.methods), "duplicate method ids")
        require(self.mc_samples >= 2, "mc_samples must be >= 2")
        require(
            self.method in SELECT_METHODS,
            f"unknown selection method {self.method!r}",
        )
        categorical_only = [n for n in (*self.methods, self.method) if _categorical_only(n)]
        require(
            self.head != GAUSSIAN or not categorical_only,
            f"{', '.join(categorical_only)} need a categorical head",
        )
        require(self.batch_size >= 0, "batch_size must be >= 0")
        require(self.rounds >= 0, "rounds must be >= 0")


# JSON key -> attribute. Only "lambda" differs (Python keyword).
_FIELD_KEYS = {
    "lambda" if f.name == "lam" else f.name: f.name
    for f in dataclasses.fields(ExperimentConfig)
}


def _check_type(key: str, value, default):
    """ConfigError unless value has the JSON type of its field's default.

    A float field takes an integer too; a None default, a string or null.
    """
    expected = str if default is None else type(default)
    fits = isinstance(value, (int, float) if expected is float else expected)
    if (value is not None or default is not None) and (isinstance(value, bool) or not fits):
        raise ConfigError(
            f"config field {key!r} must be {expected.__name__}, got {value!r}"
        )


def _read_json(path, what: str):
    """Parsed JSON of a config or model file; a parse failure is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path}: invalid JSON ({e})") from e


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Config file plus CLI overrides; overrides win field by field."""
    raw: dict = {}
    if path is not None:
        raw = _read_json(path, "config")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: expected a flat JSON object")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# splits


@dataclasses.dataclass(frozen=True)
class Splits:
    """Row ids of each split; test is whatever the others did not claim."""

    train: np.ndarray
    pool: np.ndarray
    eval: np.ndarray
    test: np.ndarray


def make_splits(config: ExperimentConfig, n_total: int) -> Splits:
    """Partition [0, n_total) by a permutation seeded off the master seed.

    eval_source="disjoint" carves the eval set after train and pool;
    eval_source="pool" reuses the first eval_size pool rows, which makes
    the transductive scores target the acquisition distribution itself.
    """
    t, p, e = config.train_size, config.pool_size, config.eval_size
    if config.eval_source == "pool" and e > p:
        raise ConfigError(f"eval_size {e} exceeds pool_size {p} with eval_source=pool")
    needed = t + p + (e if config.eval_source == "disjoint" else 0)
    if needed > n_total:
        raise ConfigError(f"splits need {needed} rows, dataset has {n_total}")
    perm = np.random.default_rng(config.seed + SPLIT_SEED).permutation(n_total)
    train = perm[:t]
    pool = perm[t : t + p]
    if config.eval_source == "disjoint":
        ev = perm[t + p : t + p + e]
        test = perm[t + p + e :]
    else:
        ev = pool[:e]
        test = perm[t + p :]
    return Splits(train=train, pool=pool, eval=ev, test=test)


# ---------------------------------------------------------------------------
# score tables


@dataclasses.dataclass
class ScoreTable:
    """Rectangular per-candidate scores, one column per method id.

    indices are dataset row ids of the scored pool. Orientation tags which
    direction is better so consumers can normalize before ranking.
    """

    indices: tuple[int, ...]
    columns: dict[str, np.ndarray]
    orientations: dict[str, str]

    def __post_init__(self):
        n = len(self.indices)
        for name, col in self.columns.items():
            if len(col) != n:
                raise LengthMismatch(
                    f"column {name!r} has {len(col)} entries for {n} rows"
                )
            if name not in self.orientations:
                raise ConfigError(f"column {name!r} has no orientation")

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def oriented(self, name: str) -> np.ndarray:
        """Column values flipped so that larger is always better."""
        col = np.asarray(self.columns[name], dtype=float)
        return -col if self.orientations[name] == MINIMIZE else col.copy()

    def to_csv(self, path):
        lines = ["index," + ",".join(self.methods)]
        cols = [np.asarray(self.columns[m], dtype=float) for m in self.methods]
        for row, idx in enumerate(self.indices):
            cells = [str(int(idx))] + [format_float(float(c[row])) for c in cols]
            lines.append(",".join(cells))
        pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_csv(cls, path) -> "ScoreTable":
        text = pathlib.Path(path).read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if ln]
        if not lines:
            raise ConfigError(f"score table {path}: file is empty")
        header = lines[0].split(",")
        if header[:1] != ["index"]:
            raise ConfigError(f"score table {path}: header must start with 'index'")
        names = header[1:]
        orientations = _known_orientations(path, names)
        width = len(header)
        try:
            body = parse_rows(lines[1:], lambda: (ln.split(",") for ln in lines[1:]), width, width)
        except InfoselectError as e:
            raise _tagged(e, f"score table {path}")
        return cls(
            indices=tuple(int(i) for i in body[:, 0]),
            columns={n: body[:, j + 1].copy() for j, n in enumerate(names)},
            orientations=orientations,
        )

    def to_json(self, path):
        doc = {
            "indices": [int(i) for i in self.indices],
            "orientations": dict(self.orientations),
            "columns": {
                name: [float(v) for v in col] for name, col in self.columns.items()
            },
        }
        _write_json(path, doc)

    @classmethod
    def from_json(cls, path) -> "ScoreTable":
        doc = _read_json(path, "score table")
        try:
            columns = {
                name: np.asarray(col, dtype=float) for name, col in doc["columns"].items()
            }
            orientations = _known_orientations(path, columns)
            if dict(doc["orientations"]) != orientations:
                raise ConfigError(
                    f"score table {path}: orientations {doc['orientations']}, "
                    f"expected {orientations}"
                )
            return cls(
                indices=tuple(int(i) for i in doc["indices"]),
                columns=columns,
                orientations=orientations,
            )
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as e:
            raise ConfigError(f"score table {path}: missing or mistyped field ({e!r})") from e


def _known_orientations(path, names) -> dict[str, str]:
    """Each column's orientation from the registry; an unknown name fails."""
    unknown = [n for n in names if n not in SCORE_ORIENTATIONS]
    if unknown:
        raise ConfigError(f"score table {path}: unknown columns {unknown}")
    return {n: SCORE_ORIENTATIONS[n] for n in names}


def _write_json(path, doc):
    pathlib.Path(path).write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )


def _tagged(e: InfoselectError, where: str) -> InfoselectError:
    """Prefix the failing stage or method onto the error message."""
    e.args = (f"{where}: {e}",) + e.args[1:]
    return e


def compute_scores(
    methods,
    scorer: Scorer,
    pool_xs,
    eval_xs,
    *,
    mc_samples: int,
    seed: int,
    pool_labels=None,
) -> dict[str, np.ndarray]:
    """One score column per requested method id, in request order.

    The methods share one _Run, so the posterior is sampled once, one Monte
    Carlo pass gives both prediction-space columns, and each weight-space
    family gives its log-det and trace columns together. `eig_logdet_sim`
    draws row i's label from seed + LABEL_SEED + i. `grand` needs pool labels.
    """
    methods = tuple(methods)
    for name in methods:
        if name not in SCORE_METHODS:
            raise ConfigError(f"unknown score method {name!r}")
    pool = np.atleast_2d(np.asarray(pool_xs, dtype=float))
    if pool.size == 0:
        return {name: np.zeros(0) for name in methods}
    run = _Run(scorer, pool, eval_xs, mc_samples, seed, pool_labels, methods)
    columns: dict[str, np.ndarray] = {}
    for name in methods:
        try:
            columns[name] = np.asarray(SCORE_METHODS[name].compute(run), dtype=float)
        except InfoselectError as e:
            raise _tagged(e, f"method {name}")
    return columns


def build_score_table(
    config: ExperimentConfig, data: Dataset, splits: Splits, scorer: Scorer
) -> ScoreTable:
    pool_xs = data.features[splits.pool]
    eval_xs = data.features[splits.eval]
    pool_labels = data.labels[splits.pool] if data.is_labeled else None
    columns = compute_scores(
        config.methods,
        scorer,
        pool_xs,
        eval_xs,
        mc_samples=config.mc_samples,
        seed=config.seed,
        pool_labels=pool_labels,
    )
    return ScoreTable(
        indices=tuple(int(i) for i in splits.pool),
        columns=columns,
        orientations={m: SCORE_ORIENTATIONS[m] for m in config.methods},
    )


# ---------------------------------------------------------------------------
# model serialization


def save_model(path, model: GlmModel, lam: float, fit: FitInfo | None = None):
    doc = {
        "head": {"kind": model.head.kind, "C": model.head.num_outputs},
        "D": model.dim,
        "weights": [float(v) for v in model.weights.reshape(-1)],
        "lambda": float(lam),
        "fit": {
            "grad_norm": float(fit.grad_norm) if fit else None,
            "iters": int(fit.iterations) if fit else None,
        },
    }
    _write_json(path, doc)


def load_model(path) -> tuple[GlmModel, float]:
    doc = _read_json(path, "model")
    try:
        kind = doc["head"]["kind"]
        c = int(doc["head"]["C"])
        dim = int(doc["D"])
        flat = np.asarray(doc["weights"], dtype=float)
        lam = float(doc["lambda"])
        if kind not in (CATEGORICAL, GAUSSIAN):
            raise ConfigError(f"model {path}: unknown head kind {kind!r}")
        head = Head.categorical(c) if kind == CATEGORICAL else Head.gaussian()
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        problem = "missing field" if isinstance(e, (KeyError, TypeError)) else "bad field"
        raise ConfigError(f"model {path}: {problem} ({e})") from e
    if flat.size != dim * head.num_outputs:
        raise ConfigError(
            f"model {path}: {flat.size} weights for D={dim}, C={head.num_outputs}"
        )
    weights = flat.reshape(dim, head.num_outputs)
    return GlmModel(head=head, weights=weights), lam


# ---------------------------------------------------------------------------
# shared command plumbing


def load_dataset(config: ExperimentConfig) -> Dataset:
    if config.data is not None:
        return load_csv(config.data)
    return gen_synthetic(
        config.seed + DATA_SEED, config.n, config.dim, config.classes, config.class_sep
    )


def _fit(config: ExperimentConfig, train: Dataset) -> tuple[GlmModel, FitInfo]:
    head = Head.gaussian() if config.head == GAUSSIAN else Head.categorical(config.classes)
    try:
        return map_fit(train, head, config.lam, full_output=True)
    except InfoselectError as e:
        raise _tagged(e, "fit")


def _scorer_for(config: ExperimentConfig, data: Dataset, splits: Splits) -> Scorer:
    """Scorer of the model artifact when given, else of a fit of the train split."""
    train = data.subset(splits.train)
    if config.model is None:
        model, _ = _fit(config, train)
    else:
        model, lam = load_model(config.model)
        if lam != config.lam:
            raise ConfigError(
                f"model {config.model} was fit with lambda={lam}, "
                f"config says {config.lam}"
            )
        if model.dim != train.dim:
            raise ConfigError(
                f"model expects D={model.dim}, data has D={train.dim}"
            )
    return Scorer(model, build_posterior(model, train, config.lam))


def _out_dir(config: ExperimentConfig) -> pathlib.Path:
    out = pathlib.Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_train(config: ExperimentConfig) -> pathlib.Path:
    """Fit the train split and write model.json."""
    config.validate()
    data = load_dataset(config)
    splits = make_splits(config, data.n)
    model, info = _fit(config, data.subset(splits.train))
    path = _out_dir(config) / "model.json"
    save_model(path, model, config.lam, info)
    return path


def cmd_score(config: ExperimentConfig) -> tuple[pathlib.Path, pathlib.Path]:
    """Score the pool with every configured method; write CSV and JSON."""
    config.validate()
    data = load_dataset(config)
    splits = make_splits(config, data.n)
    scorer = _scorer_for(config, data, splits)
    table = build_score_table(config, data, splits, scorer)
    out = _out_dir(config)
    csv_path, json_path = out / "scores.csv", out / "scores.json"
    table.to_csv(csv_path)
    table.to_json(json_path)
    return csv_path, json_path


def select_batch(
    config: ExperimentConfig,
    scorer: Scorer,
    pool_xs: np.ndarray,
    eval_xs: np.ndarray,
    k: int,
    seed: int,
    pool_labels=None,
) -> SelectionResult:
    """Run config.method's selector over the pool; indices are pool positions."""
    select = SELECTORS.get(config.method)
    if select is None:
        raise ConfigError(f"unknown selection method {config.method!r}")
    run = _Run(scorer, pool_xs, eval_xs, config.mc_samples, config.seed, pool_labels)
    try:
        return select(run, k, seed)
    except InfoselectError as e:
        raise _tagged(e, f"select {config.method}")


def cmd_select(config: ExperimentConfig) -> pathlib.Path:
    """Choose a batch from the pool and write select.json (row ids)."""
    config.validate()
    data = load_dataset(config)
    splits = make_splits(config, data.n)
    scorer = _scorer_for(config, data, splits)
    pool_labels = data.labels[splits.pool] if data.is_labeled else None
    result = select_batch(
        config,
        scorer,
        data.features[splits.pool],
        data.features[splits.eval],
        config.batch_size,
        seed=config.seed + SELECT_SEED,
        pool_labels=pool_labels,
    )
    doc = {
        "method": result.method,
        "k": config.batch_size,
        "indices": [int(splits.pool[i]) for i in result.indices],
        "pool_positions": [int(i) for i in result.indices],
        "objective": float(result.objective_value),
        "gains": [float(g) for g in result.gains],
    }
    path = _out_dir(config) / "select.json"
    _write_json(path, doc)
    return path


def correlation_matrix(table: ScoreTable) -> tuple[tuple[str, ...], np.ndarray]:
    """Spearman matrix over orientation-normalized columns.

    The diagonal is pinned to 1.0 and the lower triangle mirrors the upper
    one, so the output is exactly symmetric.
    """
    names = table.methods
    oriented = [table.oriented(m) for m in names]
    m = len(names)
    mat = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            try:
                rho = spearman(oriented[i], oriented[j])
            except InfoselectError as e:
                raise _tagged(e, f"correlate {names[i]} vs {names[j]}")
            mat[i, j] = mat[j, i] = rho
    return names, mat


def cmd_correlate(config: ExperimentConfig) -> tuple[pathlib.Path, pathlib.Path]:
    """Score the pool, then write the method-by-method Spearman matrix."""
    _, scores_json = cmd_score(config)
    out = scores_json.parent
    names, mat = correlation_matrix(ScoreTable.from_json(scores_json))
    lines = ["method," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(format_float(v) for v in mat[i]))
    csv_path = out / "correlation.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    json_path = out / "correlation.json"
    _write_json(
        json_path,
        {"methods": list(names), "matrix": [[float(v) for v in row] for row in mat]},
    )
    return csv_path, json_path


def _accuracy(model: GlmModel, data: Dataset, row_ids: np.ndarray) -> float:
    xs = data.features[row_ids]
    ys = data.require_labels()[row_ids]
    zs = xs @ model.weights
    return float(np.mean(np.argmax(zs, axis=1) == ys))


def _check_pool_feeds_rounds(config: ExperimentConfig, pool_size: int):
    """Raise before any fit if some round would find the pool too small.

    Round r starts with pool_size - (r - 1) batch_size rows. It needs
    batch_size of them, and bait its forward width of BAIT_FORWARD_MULTIPLIER
    batch_size. The error names the first such round, as that round would.
    """
    b = config.batch_size
    need = BAIT_FORWARD_MULTIPLIER * b if config.method == "bait" else b
    if config.rounds == 0 or pool_size - (config.rounds - 1) * b >= need:
        return
    # the first r with pool_size - (r - 1) b < need; b >= 1 here
    rnd = max(1, (pool_size - need) // b + 2)
    left = pool_size - (rnd - 1) * b
    if b > left:
        raise PoolExhausted(f"round {rnd} needs {b} rows, pool has {left}")
    raise _tagged(BatchTooLarge(f"forward width {need} from a pool of {left}"), "select bait")


def cmd_simulate(config: ExperimentConfig) -> pathlib.Path:
    """Run the label-and-refit loop and write per-round learning curves.

    Each round selects batch_size pool rows with config.method, reveals
    their labels, refits, and scores accuracy on the held-out test split.
    A random-selection baseline over the same splits is always included.
    """
    config.validate()
    if config.head != CATEGORICAL:
        raise ConfigError("simulate reports accuracy; use the categorical head")
    if config.method == "top_k_grand":
        raise ConfigError("simulate cannot use top_k_grand: it ranks on unrevealed labels")
    data = load_dataset(config)
    if not data.is_labeled:
        raise MissingLabels("simulate needs labels to reveal")
    splits = make_splits(config, data.n)
    if splits.test.size == 0:
        raise ConfigError("no held-out rows left for accuracy; shrink the splits")
    _check_pool_feeds_rounds(config, splits.pool.size)

    rows = []
    methods = dict.fromkeys((config.method, "random"))  # ordered, without repeats
    for method in methods:
        run_config = config.replace(method=method)
        train_ids = [int(i) for i in splits.train]
        pool_ids = [int(i) for i in splits.pool]
        model, _ = _fit(run_config, data.subset(train_ids))
        rows.append((method, 0, len(train_ids), _accuracy(model, data, splits.test), 0.0))
        for rnd in range(1, config.rounds + 1):
            posterior = build_posterior(model, data.subset(train_ids), config.lam)
            scorer = Scorer(model, posterior)
            result = select_batch(
                run_config,
                scorer,
                data.features[np.asarray(pool_ids, dtype=int)],
                data.features[splits.eval],
                config.batch_size,
                seed=config.seed + SELECT_SEED + rnd,
            )
            picked = [pool_ids[i] for i in result.indices]
            train_ids.extend(picked)
            taken = set(picked)
            pool_ids = [i for i in pool_ids if i not in taken]
            model, _ = _fit(run_config, data.subset(train_ids))
            rows.append(
                (
                    method,
                    rnd,
                    len(train_ids),
                    _accuracy(model, data, splits.test),
                    float(result.objective_value),
                )
            )

    lines = ["method,round,labeled_count,accuracy,objective"]
    for method, rnd, count, acc, obj in rows:
        lines.append(
            f"{method},{rnd},{count},{format_float(acc)},{format_float(obj)}"
        )
    path = _out_dir(config) / "simulate.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
