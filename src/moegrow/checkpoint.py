"""On-disk checkpoint format: named float32 tensors plus a config sidecar.

A checkpoint is a directory holding ``config.json`` and ``tensors.bin``.
``tensors.bin`` is an 8-byte little-endian header length, a UTF-8 JSON header
mapping tensor name -> {dtype, shape, data_offsets}, then raw little-endian
binary32 data. Round-trips are bitwise exact.

ROLES names the axes of every tensor role; tensor shapes, width growth,
upcycling and parameter counts are all derived from it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ModelConfig, MoEConfig
from .errors import CheckpointError, ValidationError

CONFIG_FILE = "config.json"
TENSORS_FILE = "tensors.bin"
_DTYPE_TAG = "f32"


# Axis names of every tensor role, in canonical (initialization) order. Roles
# under "layers.{i}." repeat, as one block, once per layer. "_bias" roles
# exist only with qkv_bias and "moe." roles only in routed checkpoints, where
# the "mlp." roles become n_experts expert copies ("moe.expert.{j}.") that
# close the block.
_LAYER = "layers.{i}."
ROLES: dict[str, tuple[str, ...]] = {
    "embed": ("vocab", "hidden"),
    "layers.{i}.attn_norm": ("hidden",),
    "layers.{i}.attn.wq": ("hidden", "q"),
    "layers.{i}.attn.wk": ("hidden", "kv"),
    "layers.{i}.attn.wv": ("hidden", "kv"),
    "layers.{i}.attn.q_bias": ("q",),
    "layers.{i}.attn.k_bias": ("kv",),
    "layers.{i}.attn.v_bias": ("kv",),
    "layers.{i}.attn.wo": ("q", "hidden"),
    "layers.{i}.mlp_norm": ("hidden",),
    "layers.{i}.moe.router": ("hidden", "experts"),
    "layers.{i}.mlp.w_gate": ("hidden", "inter"),
    "layers.{i}.mlp.w_up": ("hidden", "inter"),
    "layers.{i}.mlp.w_down": ("inter", "hidden"),
    "final_norm": ("hidden",),
    "unembed": ("hidden", "vocab"),
}


def _kept(role: str, config: ModelConfig, moe: MoEConfig | None) -> bool:
    return (config.qkv_bias or not role.endswith("_bias")) and (moe is not None or ".moe." not in role)


def tensor_count(config: ModelConfig, moe: MoEConfig | None = None) -> int:
    """Number of tensors a config implies, counted without laying out names."""
    total = 0
    for role in ROLES:
        if not _kept(role, config, moe):
            continue
        copies = config.n_layers if role.startswith(_LAYER) else 1
        if moe is not None and role.startswith(_LAYER + "mlp."):
            copies *= moe.n_experts
        total += copies
    return total


def _layout(values: dict, config: ModelConfig, moe: MoEConfig | None) -> dict:
    """Lay a per-role table (ROLES, or one derived from it) out over the
    tensor names a config implies, in canonical order."""
    out = {}
    for per_layer, group in itertools.groupby(values.items(), lambda item: item[0].startswith(_LAYER)):
        roles = [(role.removeprefix(_LAYER), value) for role, value in group
                 if _kept(role, config, moe)]
        if not per_layer:
            out.update(roles)
            continue
        if moe is not None:
            mlp = [(role.removeprefix("mlp."), value) for role, value in roles if role.startswith("mlp.")]
            roles = [(role, value) for role, value in roles if not role.startswith("mlp.")] + [
                (f"moe.expert.{j}.{role}", value) for j in range(moe.n_experts) for role, value in mlp
            ]
        for i in range(config.n_layers):
            prefix = f"layers.{i}."
            out.update((prefix + role, value) for role, value in roles)
    return out


def tensor_axes(config: ModelConfig, moe: MoEConfig | None = None) -> dict[str, tuple[str, ...]]:
    """Canonical tensor name -> axis names implied by a config."""
    return _layout(ROLES, config, moe)


def tensor_shapes(config: ModelConfig, moe: MoEConfig | None = None) -> dict[str, tuple[int, ...]]:
    """Canonical tensor name -> shape map implied by a config."""
    sizes = {
        "vocab": config.vocab_size,
        "hidden": config.hidden_dim,
        "q": config.q_dim,
        "kv": config.kv_dim,
        "inter": config.intermediate_dim,
        "experts": 0 if moe is None else moe.n_experts,
    }
    shapes = {role: tuple(sizes[a] for a in axes) for role, axes in ROLES.items()}
    return _layout(shapes, config, moe)


@dataclass
class Checkpoint:
    """A validated, immutable set of named float32 tensors plus its config."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    moe: MoEConfig | None = None

    def validate(self) -> None:
        self.config.validate()
        if self.moe is not None:
            self.moe.validate()
        expected = tensor_shapes(self.config, self.moe)
        missing = sorted(set(expected) - set(self.tensors))
        if missing:
            more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
            raise ValidationError(f"missing tensor {missing[0]!r}{more}")
        extra = sorted(set(self.tensors) - set(expected))
        if extra:
            raise ValidationError(f"unknown tensor name {extra[0]!r}")
        for name, shape in expected.items():
            arr = self.tensors[name]
            if arr.dtype != np.float32:
                raise ValidationError(f"tensor {name!r} has dtype {arr.dtype}, expected float32")
            if tuple(arr.shape) != shape:
                raise ValidationError(
                    f"tensor {name!r} has shape {tuple(arr.shape)}, config implies {shape}"
                )
            if not np.isfinite(arr).all():
                raise ValidationError(f"tensor {name!r} contains non-finite values")

    def freeze(self) -> "Checkpoint":
        """Mark all tensors read-only; transforms always build new arrays."""
        for arr in self.tensors.values():
            arr.flags.writeable = False
        return self


@dataclass(frozen=True)
class ParamCount:
    total: int
    activated: int


def count_params(ckpt: Checkpoint) -> ParamCount:
    """Total and per-token-activated parameter counts of a checkpoint."""
    sizes = {name: arr.size for name, arr in ckpt.tensors.items()}
    return _count(sizes, ckpt.moe)


def count_config_params(config: ModelConfig, moe: MoEConfig | None = None) -> ParamCount:
    """Parameter counts implied by a config, without materializing tensors."""
    config.validate()
    if moe is not None:
        moe.validate()
    sizes = {name: math.prod(shape) for name, shape in tensor_shapes(config, moe).items()}
    return _count(sizes, moe)


def _count(sizes: dict[str, int], moe: MoEConfig | None) -> ParamCount:
    total = sum(sizes.values())
    if moe is None:
        return ParamCount(total=total, activated=total)
    # Experts are replicas, so each carries the same parameter count; a token
    # activates attention + router + top_k experts per layer.
    experts = sum(size for name, size in sizes.items() if ".moe.expert." in name)
    inactive = experts // moe.n_experts * (moe.n_experts - moe.top_k)
    return ParamCount(total=total, activated=total - inactive)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint directory; load(save(c)) is bitwise identical to c.

    Both files are written under temporary names in the directory and then
    renamed over the old ones, so a save that fails leaves the previous
    checkpoint whole and no temporary file behind.
    """
    ckpt.validate()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    config_doc = ckpt.config.to_dict()
    if ckpt.moe is not None:
        config_doc["moe"] = ckpt.moe.to_dict()

    names = sorted(ckpt.tensors)
    header: dict[str, dict] = {}
    offset = 0
    for name in names:
        arr = ckpt.tensors[name]
        nbytes = arr.size * 4
        header[name] = {
            "dtype": _DTYPE_TAG,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    header_bytes = json.dumps(header).encode("utf-8")

    def write_tensors(fh) -> None:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            fh.write(memoryview(np.ascontiguousarray(ckpt.tensors[name], "<f4")).cast("B"))

    config_bytes = (json.dumps(config_doc, indent=2) + "\n").encode("utf-8")
    staged: list[tuple[Path, Path]] = []
    try:
        for name, write in ((TENSORS_FILE, write_tensors),
                            (CONFIG_FILE, lambda fh: fh.write(config_bytes))):
            tmp = path / f".{name}.{os.getpid()}.tmp"
            staged.append((tmp, path / name))
            with open(tmp, "wb") as fh:
                write(fh)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint directory, validating structure and values.

    The tensor data is read once into one buffer; every tensor is a
    read-only view of it.
    """
    path = Path(path)
    config_path = path / CONFIG_FILE
    tensors_path = path / TENSORS_FILE
    if not config_path.is_file() or not tensors_path.is_file():
        raise CheckpointError(f"not a checkpoint directory: {path}")

    try:
        config_doc = json.loads(config_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unparseable {CONFIG_FILE}: {exc}") from exc
    if not isinstance(config_doc, dict):
        raise CheckpointError(f"{CONFIG_FILE} must hold a JSON object")
    moe_doc = config_doc.pop("moe", None)
    if moe_doc is not None and not isinstance(moe_doc, dict):
        raise CheckpointError(f"the moe entry of {CONFIG_FILE} must be a JSON object")
    config = ModelConfig.from_dict(config_doc)
    moe = MoEConfig.from_dict(moe_doc) if moe_doc is not None else None

    with open(tensors_path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise CheckpointError(f"truncated {TENSORS_FILE}: missing header length")
        (header_len,) = struct.unpack("<Q", head)
        if 8 + header_len > file_size:
            raise CheckpointError(f"truncated {TENSORS_FILE}: header extends past end of file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unparseable tensor header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("tensor header must be a JSON object")
        expected = tensor_count(config, moe)
        if len(header) != expected:
            raise ValidationError(
                f"{CONFIG_FILE} implies {expected} tensors, {TENSORS_FILE} holds {len(header)}"
            )

        data_size = file_size - 8 - header_len
        spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        for name, meta in header.items():
            if not isinstance(meta, dict):
                raise CheckpointError(f"header entry of tensor {name!r} must be a JSON object")
            if meta.get("dtype") != _DTYPE_TAG:
                raise CheckpointError(f"tensor {name!r} has unsupported dtype {meta.get('dtype')!r}")
            shape, offsets = meta.get("shape"), meta.get("data_offsets")
            if not (_is_count_list(shape) and _is_count_list(offsets) and len(offsets) == 2):
                raise CheckpointError(
                    f"tensor {name!r} needs a shape and two data_offsets, "
                    "as lists of non-negative integers"
                )
            shape = tuple(shape)
            begin, end = offsets
            if not 0 <= begin <= end <= data_size:
                raise CheckpointError(f"truncated {TENSORS_FILE}: tensor {name!r} data out of bounds")
            if end - begin != math.prod(shape) * 4:
                raise CheckpointError(f"tensor {name!r} byte length does not match shape {shape}")
            spans[name] = (begin, end, shape)
        _check_packed(spans)

        # bytes after the last tensor are never read
        data = np.empty(max((end for _, end, _ in spans.values()), default=0), dtype=np.uint8)
        if fh.readinto(memoryview(data)) != data.size:
            raise CheckpointError(f"truncated {TENSORS_FILE}: data ends early")

    tensors = {
        name: np.frombuffer(data, dtype="<f4", count=math.prod(shape), offset=begin).reshape(shape)
        for name, (begin, _, shape) in spans.items()
    }
    ckpt = Checkpoint(config=config, tensors=tensors, moe=moe)
    ckpt.validate()
    return ckpt.freeze()


def _check_packed(spans: dict[str, tuple[int, int, tuple[int, ...]]]) -> None:
    """Reject tensors whose bytes overlap, which would load as aliases, and
    bytes before or between tensors that no tensor reads, as a save never
    writes them."""
    prev_name, prev_end = None, 0
    for name, (begin, end, _) in sorted(spans.items(), key=lambda item: item[1][:2]):
        if begin == end:
            continue
        if begin < prev_end:
            raise CheckpointError(f"tensors {prev_name!r} and {name!r} overlap in {TENSORS_FILE}")
        if begin > prev_end:
            after = f"after tensor {prev_name!r}" if prev_name else "before the first tensor"
            raise CheckpointError(
                f"{begin - prev_end} unread bytes {after} in {TENSORS_FILE}, at tensor {name!r}"
            )
        prev_name, prev_end = name, end


def _is_count_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int and v >= 0 for v in value)
