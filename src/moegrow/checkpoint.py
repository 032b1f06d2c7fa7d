"""On-disk checkpoint format: named float32 tensors plus a config sidecar.

A checkpoint is a directory holding ``config.json`` and ``tensors.bin``.
``tensors.bin`` is an 8-byte little-endian header length, a UTF-8 JSON header
mapping tensor name -> {dtype, shape, data_offsets}, then raw little-endian
binary32 data. Round-trips are bitwise exact. The header's ``__metadata__``
entry records a digest of the config document, so tensors and a config
from different saves do not load as one checkpoint.

The config fixes the file layout: tensors in sorted-name order, packed from
byte 0, each entry ``{"dtype": "f32", "shape": [...], "data_offsets": [begin,
end]}``. A load accepts only those entries, value for value and type for
type, so a header no save writes (another order, a gap, an overlap, an extra
key, ``false`` or ``0.0`` for 0) is rejected by the tensor it first differs at.

ROLES names the axes of every tensor role; tensor shapes, width growth,
upcycling and parameter counts are all derived from it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .config import ModelConfig, MoEConfig
from .errors import CheckpointError, ValidationError

CONFIG_FILE = "config.json"
TENSORS_FILE = "tensors.bin"
_DTYPE_TAG = "f32"
_METADATA = "__metadata__"


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
    """A set of named float32 tensors plus its config; once frozen, a
    validated, immutable value."""

    config: ModelConfig
    tensors: Mapping[str, np.ndarray]
    moe: MoEConfig | None = None
    _frozen: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if self._frozen:
            raise AttributeError(f"cannot set {name!r} of a frozen checkpoint")
        super().__setattr__(name, value)

    def validate(self) -> None:
        """Check names, dtypes, shapes and finiteness against the configs,
        which were checked when built; a frozen checkpoint passed all of them
        when it was frozen and returns at once. An array held under several
        names is scanned once."""
        if not self._frozen:
            self._validate(scanned=set())

    def _validate(self, scanned: set[int]) -> None:
        """validate(), minus the finiteness scan of arrays whose id is in scanned."""
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
            if id(arr) not in scanned and not np.isfinite(arr).all():
                raise ValidationError(f"tensor {name!r} contains non-finite values")
            scanned.add(id(arr))

    def freeze(self) -> "Checkpoint":
        """Validate, then make the arrays and the tensor mapping read-only.

        The frozen checkpoint is a value: transforms share its arrays
        instead of copying them, and nothing validates it again. A transform
        freezes its output with ``_freeze_from(input)``, which scans for
        non-finite values only the arrays that the output does not share
        with its frozen input.
        """
        return self._freeze_from(None)

    def _freeze_from(self, source: "Checkpoint | None") -> "Checkpoint":
        """freeze(), minus the finiteness scan of every array that is one of
        the frozen checkpoint source's own arrays: source scanned them when it
        froze. Names, dtypes and shapes are checked all the same."""
        if not self._frozen:
            trusted = source is not None and source._frozen
            self._validate({id(arr) for arr in source.tensors.values()} if trusted else set())
            for arr in self.tensors.values():
                arr.flags.writeable = False
            self.tensors = MappingProxyType(dict(self.tensors))
            self._frozen = True
        return self

    def snapshot(self) -> "Checkpoint":
        """This checkpoint if frozen, else a frozen copy of it, which later
        writes into this checkpoint's arrays cannot change."""
        if self._frozen:
            return self
        tensors = {name: arr.copy() for name, arr in self.tensors.items()}
        return Checkpoint(config=self.config, tensors=tensors, moe=self.moe).freeze()


@dataclass(frozen=True)
class ParamCount:
    total: int
    activated: int


def count_params(ckpt: Checkpoint) -> ParamCount:
    """Total and per-token-activated parameter counts of a checkpoint, which
    must hold every tensor its config implies."""
    ckpt.validate()
    return count_config_params(ckpt.config, ckpt.moe)


def count_config_params(config: ModelConfig, moe: MoEConfig | None = None) -> ParamCount:
    """Parameter counts implied by a config, without materializing tensors."""
    sizes = {name: math.prod(shape) for name, shape in tensor_shapes(config, moe).items()}
    total = sum(sizes.values())
    if moe is None:
        return ParamCount(total=total, activated=total)
    # Experts are replicas, so each carries the same parameter count; a token
    # activates attention + router + top_k experts per layer.
    experts = sum(size for name, size in sizes.items() if ".moe.expert." in name)
    inactive = experts // moe.n_experts * (moe.n_experts - moe.top_k)
    return ParamCount(total=total, activated=total - inactive)


def _config_digest(config_doc: dict) -> str:
    canonical = json.dumps(config_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _file_layout(shapes: Mapping[str, tuple[int, ...]]) -> dict[str, dict]:
    """Header entry of every tensor in a name -> shape map, in file order:
    names sorted, float32 data packed from byte 0."""
    entries, begin = {}, 0
    for name in sorted(shapes):
        end = begin + 4 * math.prod(shapes[name])
        entries[name] = {"dtype": _DTYPE_TAG, "shape": list(shapes[name]), "data_offsets": [begin, end]}
        begin = end
    return entries


def _same_entries(header: dict, entries: dict[str, dict]) -> bool:
    """Whether parsed header entries are the layout's entries type for type:
    Python takes a JSON false or 0.0 as equal to 0."""
    return header == entries and all(type(n) is int for entry in header.values()
                                     for n in (*entry["shape"], *entry["data_offsets"]))


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

    # validate() has checked every shape against the config
    entries = _file_layout({name: arr.shape for name, arr in ckpt.tensors.items()})
    header = {_METADATA: {"config_digest": _config_digest(config_doc)}, **entries}
    header_bytes = json.dumps(header).encode("utf-8")

    def write_tensors(fh) -> None:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in entries:
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

    Every tensor entry of the header must be, type for type, the one a save
    of config.json writes; else a CheckpointError names the first tensor,
    in file order, whose entry differs. The tensor data is read once into
    one buffer; every tensor is a read-only view of it, and bytes after the
    last tensor are never read. A config digest in the tensor header must
    match config.json; a header written without one loads as before.
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
    digest = _config_digest(config_doc)
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
        except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long for int()
            raise CheckpointError(f"unparseable tensor header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("tensor header must be a JSON object")
        metadata = header.pop(_METADATA, {})
        if not isinstance(metadata, dict):
            raise CheckpointError(f"the {_METADATA} entry of the tensor header must be a JSON object")
        expected = tensor_count(config, moe)
        if len(header) != expected:
            raise ValidationError(
                f"{CONFIG_FILE} implies {expected} tensors, {TENSORS_FILE} holds {len(header)}"
            )

        entries = _file_layout(tensor_shapes(config, moe))
        if not _same_entries(header, entries):
            name = next(name for name, want in entries.items()
                        if not _same_entries({name: header.get(name)}, {name: want}))
            raise CheckpointError(
                f"the {TENSORS_FILE} header entry of tensor {name!r} is not the one a save "
                f"writes for {CONFIG_FILE}: {json.dumps(entries[name])}"
            )
        _, size = next(reversed(entries.values()))["data_offsets"]
        data = np.empty(size // 4, dtype="<f4")
        if fh.readinto(data) != size:
            raise CheckpointError(f"truncated {TENSORS_FILE}: data ends early")

    tensors = {}
    for name, entry in entries.items():
        begin, end = entry["data_offsets"]
        tensors[name] = data[begin // 4 : end // 4].reshape(entry["shape"])
    ckpt = Checkpoint(config=config, tensors=tensors, moe=moe).freeze()
    if metadata.get("config_digest", digest) != digest:
        raise CheckpointError(
            f"{TENSORS_FILE} was saved with a different {CONFIG_FILE} "
            "(a save interrupted between its two renames?)"
        )
    return ckpt
