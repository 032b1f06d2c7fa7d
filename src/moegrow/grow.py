"""Width, head, and depth growth operators for dense and routed checkpoints.

Two width-expansion families over a shared circular index map:

* fpi_expand: duplicate output neurons and split input weights by their
  duplication count. The widened model computes the same function as its
  source (exactly, when every grown dimension is an integer multiple).
* aki_expand: identical input-axis splitting, but new output neurons copy
  the next layer's (input-expanded) weights instead of duplicating their
  own. This breaks the weight symmetry that slows later training, at the
  cost of exact preservation; the topmost layer falls back to duplication.

Depth then grows by copying whole layers, either stacked (source order
repeated) or interpolated (each source layer repeated in place), and
scale_up composes width-then-depth.

Routed checkpoints grow by the same role table (checkpoint.ROLES): a
router's rows split on the hidden map, experts grow with the MLP's maps
(under AKI expert j's donor is expert j of the layer above), and depth
growth repeats whole routed blocks. FPI keeps a routed model's function,
but in float32 the split router rows reorder the logit sums, so a top-k
near-tie can flip once experts differ; compare routed growth in float64.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint, tensor_axes
from .config import ModelConfig, Record, check_seed
from .errors import ValidationError
from .model import build_graph
from .tensor import no_tape


@dataclass(frozen=True, eq=False)
class WidthMap:
    """Mapping from grown indices to source indices along one axis.

    src_index[i] names the source neuron that new position i copies;
    multiplicity[j], derived from it, counts how many new positions copy
    source j. Building a map checks that every index names one of the
    old_dim sources and that every source is copied at least once. Maps
    compare by identity: a field-wise ``==`` over arrays has no truth value.
    """

    src_index: np.ndarray
    old_dim: int
    multiplicity: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        src = np.asarray(self.src_index)
        if src.ndim != 1 or src.dtype.kind not in "iu":
            raise ValidationError("src_index must be a 1-D integer array")
        if src.size and (src.min() < 0 or src.max() >= self.old_dim):
            raise ValidationError(f"src_index out of range for old_dim {self.old_dim}")
        multiplicity = np.bincount(src, minlength=self.old_dim)
        if self.old_dim < 1 or (multiplicity < 1).any():
            raise ValidationError("every source index must be copied at least once")
        object.__setattr__(self, "src_index", src)
        object.__setattr__(self, "multiplicity", multiplicity)

    @property
    def new_dim(self) -> int:
        return len(self.src_index)

    def primary_mask(self) -> np.ndarray:
        """True at the first position copying each source index.

        Primary positions keep the tensor's own slices under donor-based
        expansion; for a circular whole-axis map these are the first old_dim
        positions, while per-group head maps interleave them group by group.
        """
        mask = np.zeros(self.new_dim, dtype=bool)
        mask[np.unique(self.src_index, return_index=True)[1]] = True
        return mask

    def per_element(self, size: int) -> "WidthMap":
        """The same map over blocks of ``size`` consecutive elements, one entry
        per element: a head map becomes a map over the head-major q axis."""
        src = (self.src_index[:, None] * size + np.arange(size)).reshape(-1)
        return WidthMap(src, self.old_dim * size)


def build_width_map(old_dim: int, new_dim: int) -> WidthMap:
    """Circular copy map: new position i copies source i mod old_dim."""
    if old_dim < 1 or new_dim < old_dim:
        raise ValidationError(f"need 1 <= old_dim <= new_dim, got ({old_dim}, {new_dim})")
    return WidthMap(np.arange(new_dim) % old_dim, old_dim)


def build_grouped_head_map(old_heads: int, new_heads: int, kv_groups: int) -> WidthMap:
    """Circular copy map over query heads, applied within each KV group.

    New head t of group g copies source head (t mod heads-per-group) of the
    same group, so duplicated heads share their group's keys and values.
    """
    if old_heads % kv_groups or new_heads % kv_groups:
        raise ValidationError(
            f"head counts ({old_heads}, {new_heads}) must be divisible by kv_groups {kv_groups}"
        )
    if new_heads < old_heads:
        raise ValidationError(f"cannot shrink heads {old_heads} -> {new_heads}")
    hpg_old = old_heads // kv_groups
    hpg_new = new_heads // kv_groups
    src = np.concatenate(
        [g * hpg_old + (np.arange(hpg_new) % hpg_old) for g in range(kv_groups)]
    )
    return WidthMap(src, old_heads)


def expand_in_axis(w: np.ndarray, wmap: WidthMap) -> np.ndarray:
    """Grow a matrix along its input (first) axis, splitting by multiplicity.

    Feeding the result an input duplicated per the map reproduces the
    original product: each copy contributes its share of the original row.
    """
    if w.ndim != 2:
        raise ValidationError(f"expand_in_axis grows a matrix, got shape {w.shape}")
    if w.shape[0] != wmap.old_dim:
        raise ValidationError(f"input axis {w.shape[0]} != map old_dim {wmap.old_dim}")
    mult = wmap.multiplicity[wmap.src_index].astype(w.dtype)
    return np.take(w, wmap.src_index, axis=0) / mult[:, None]


def expand_out_axis(w: np.ndarray, wmap: WidthMap, donor: np.ndarray | None = None) -> np.ndarray:
    """Grow a tensor along its output (last) axis by duplication.

    Without a donor, new slices duplicate this tensor's own mapped slices.
    With a donor (same shape, same role in the next layer), each source's
    primary position keeps this tensor's slice and every extra copy takes
    the donor's mapped slice instead.
    """
    axis = w.ndim - 1
    if w.shape[axis] != wmap.old_dim:
        raise ValidationError(f"output axis {w.shape[axis]} != map old_dim {wmap.old_dim}")
    if donor is None:
        return np.take(w, wmap.src_index, axis=axis)
    if donor.shape != w.shape:
        raise ValidationError(f"donor shape {donor.shape} != tensor shape {w.shape}")
    out = np.take(donor, wmap.src_index, axis=axis)
    mask = wmap.primary_mask()
    out[..., mask] = np.take(w, wmap.src_index[mask], axis=axis)
    return out


def _check_width_growth(src: ModelConfig, tgt: ModelConfig) -> None:
    if tgt.n_layers != src.n_layers:
        raise ValidationError("width expansion keeps n_layers fixed; grow depth separately")
    if tgt.kv_groups != src.kv_groups:
        raise ValidationError(f"kv_groups must match ({src.kv_groups} -> {tgt.kv_groups})")
    if tgt.head_dim != src.head_dim:
        raise ValidationError(
            f"head_dim is fixed ({src.head_dim} -> {tgt.head_dim}); grow head count instead"
        )
    if tgt.vocab_size != src.vocab_size:
        raise ValidationError("vocab_size must match between source and target")
    if tgt.qkv_bias != src.qkv_bias:
        raise ValidationError("qkv_bias must match between source and target")
    for dim in ("hidden_dim", "intermediate_dim", "n_heads"):
        if getattr(tgt, dim) < getattr(src, dim):
            raise ValidationError(
                f"cannot shrink {dim}: {getattr(src, dim)} -> {getattr(tgt, dim)}"
            )


def _expand_width(ckpt: Checkpoint, target: ModelConfig, use_donors: bool) -> Checkpoint:
    ckpt = ckpt.snapshot()
    src = ckpt.config
    _check_width_growth(src, target)
    maps = {
        "hidden": build_width_map(src.hidden_dim, target.hidden_dim),
        "inter": build_width_map(src.intermediate_dim, target.intermediate_dim),
        "q": build_grouped_head_map(src.n_heads, target.n_heads, src.kv_groups)
        .per_element(src.head_dim),
    }
    axes = tensor_axes(src, ckpt.moe)

    # input axes first (pure splitting): a matrix whose first axis grows
    split = {
        name: expand_in_axis(ckpt.tensors[name], maps[ax[0]])
        if len(ax) == 2 and ax[0] in maps else ckpt.tensors[name]
        for name, ax in axes.items()
    }
    # then output axes by duplication; below the top layer AKI takes the
    # extra copies of a matrix from the same role in the layer above
    tensors: dict[str, np.ndarray] = {}
    for name, w in split.items():
        last = axes[name][-1]
        if last in maps:
            donor = None
            if use_donors and w.ndim == 2 and name.startswith("layers."):
                _, i, role = name.split(".", 2)
                if int(i) + 1 < src.n_layers:
                    donor = split[f"layers.{int(i) + 1}.{role}"]
            w = expand_out_axis(w, maps[last], donor)
        tensors[name] = w
    return Checkpoint(config=target, tensors=tensors, moe=ckpt.moe).freeze()


def fpi_expand(ckpt: Checkpoint, target: ModelConfig) -> Checkpoint:
    """Function-preserving width expansion (self-duplication everywhere)."""
    return _expand_width(ckpt, target, use_donors=False)


def aki_expand(ckpt: Checkpoint, target: ModelConfig) -> Checkpoint:
    """Symmetry-breaking width expansion: new output neurons copy the layer
    above; the topmost layer self-duplicates."""
    return _expand_width(ckpt, target, use_donors=True)


def depth_source_indices(source_layers: int, target_layers: int, mode: str) -> list[int]:
    """Which source layer each target layer copies.

    stack repeats the whole source in order (l mod L1); interpolate repeats
    each source layer in consecutive runs (floor(l * L1 / L2)), keeping the
    source order locally intact.
    """
    if source_layers < 1:
        raise ValidationError(f"the source needs at least one layer, got {source_layers}")
    if target_layers < source_layers:
        raise ValidationError(f"cannot shrink depth {source_layers} -> {target_layers}")
    if mode == "stack":
        return [l % source_layers for l in range(target_layers)]
    if mode == "interpolate":
        return [l * source_layers // target_layers for l in range(target_layers)]
    raise ValidationError(f"unknown depth mode {mode!r} (expected 'stack' or 'interpolate')")


def grow_depth(ckpt: Checkpoint, target_layers: int, mode: str) -> Checkpoint:
    """Repeat whole layers to reach target_layers. The output shares every
    array of a frozen input; an unfrozen one is copied once first."""
    ckpt = ckpt.snapshot()
    sources = depth_source_indices(ckpt.config.n_layers, target_layers, mode)
    target = dataclasses.replace(ckpt.config, n_layers=target_layers)
    tensors: dict[str, np.ndarray] = {}
    for name in tensor_axes(target, ckpt.moe):
        source = name
        if name.startswith("layers."):
            _, i, role = name.split(".", 2)
            source = f"layers.{sources[int(i)]}.{role}"
        tensors[name] = ckpt.tensors[source]
    return Checkpoint(config=target, tensors=tensors, moe=ckpt.moe).freeze()


@dataclass(frozen=True)
class GrowthPlan(Record):
    """A full scale-up recipe: width method, depth mode, and both configs."""

    _kind = "growth plan"

    method: str
    depth_mode: str
    source_config: ModelConfig
    target_config: ModelConfig

    def validate(self) -> None:
        if self.method not in ("fpi", "aki"):
            raise ValidationError(f"unknown growth method {self.method!r}")
        if self.depth_mode not in ("stack", "interpolate"):
            raise ValidationError(f"unknown depth mode {self.depth_mode!r}")
        if self.target_config.n_layers < self.source_config.n_layers:
            raise ValidationError("target must have at least as many layers as source")
        width_target = dataclasses.replace(
            self.target_config, n_layers=self.source_config.n_layers
        )
        _check_width_growth(self.source_config, width_target)


def scale_up(ckpt: Checkpoint, plan: GrowthPlan) -> Checkpoint:
    """Grow width first (sharing one map across layers), then depth."""
    if ckpt.config != plan.source_config:
        raise ValidationError("checkpoint config does not match the plan's source_config")
    width_target = dataclasses.replace(plan.target_config, n_layers=ckpt.config.n_layers)
    expand = fpi_expand if plan.method == "fpi" else aki_expand
    widened = expand(ckpt, width_target)
    return grow_depth(widened, plan.target_config.n_layers, plan.depth_mode)


@dataclass(frozen=True)
class PreservationReport:
    max_abs_logit_diff: float
    loss_diff: float
    passed: bool
    n_probes: int
    tol: float


def verify_preservation(src_ckpt: Checkpoint, dst_ckpt: Checkpoint, n_probes: int = 16,
                        seed: int = 0, tol: float = 1e-5, probe_len: int = 16,
                        dtype=np.float32) -> PreservationReport:
    """Compare two models' logits on random probe sequences, run without a
    tape.

    Passes iff the max absolute logit difference stays within tol. The
    report is always returned, so non-integer-multiple growth can still be
    inspected even though it is not expected to pass.
    """
    if src_ckpt.config.vocab_size != dst_ckpt.config.vocab_size:
        raise ValidationError("vocab_size mismatch between checkpoints")
    if n_probes < 1:
        raise ValidationError("n_probes must be >= 1")
    if not tol >= 0:
        raise ValidationError(f"tol must be a number >= 0, got {tol}")
    if probe_len < 2:
        raise ValidationError(f"probe_len must be >= 2 to define a loss, got {probe_len}")
    length = min(probe_len, src_ckpt.config.context_length, dst_ckpt.config.context_length)
    length = max(length, 2)
    rng = np.random.default_rng(check_seed(seed))
    probes = rng.integers(0, src_ckpt.config.vocab_size, size=(n_probes, length))
    with no_tape():
        g_src = build_graph(src_ckpt, probes, dtype=dtype)
        g_dst = build_graph(dst_ckpt, probes, dtype=dtype)
    max_diff = float(np.max(np.abs(g_src.logits.data - g_dst.logits.data)))
    loss_diff = float(abs(g_src.loss.data - g_dst.loss.data))
    return PreservationReport(
        max_abs_logit_diff=max_diff,
        loss_diff=loss_diff,
        passed=max_diff <= tol,
        n_probes=n_probes,
        tol=tol,
    )


def symmetry_report(ckpt: Checkpoint) -> dict[str, int]:
    """Count bitwise-identical output-slice pairs in every weight matrix.

    Duplicated output neurons receive identical gradients and stay locked
    together under training, so this measures how much redundancy a growth
    method left behind. Vectors (biases, norm gains) are skipped: they are
    expanded by duplication under every method.
    """
    report: dict[str, int] = {}
    for name, arr in ckpt.tensors.items():
        if arr.ndim != 2:
            continue
        groups: dict[bytes, int] = {}
        for col in range(arr.shape[1]):
            key = arr[:, col].tobytes()
            groups[key] = groups.get(key, 0) + 1
        report[name] = sum(k * (k - 1) // 2 for k in groups.values())
    return report
