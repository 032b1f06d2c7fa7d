import dataclasses
import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow import (
    Checkpoint,
    CheckpointError,
    ModelConfig,
    MoEConfig,
    ValidationError,
    count_config_params,
    count_params,
    load_checkpoint,
    random_init,
    save_checkpoint,
    tensor_shapes,
    upcycle,
)


def test_tensor_names_dense(micro_config):
    shapes = tensor_shapes(micro_config)
    expected = {"embed", "final_norm", "unembed"}
    for i in range(micro_config.n_layers):
        expected |= {
            f"layers.{i}.attn_norm",
            f"layers.{i}.attn.wq",
            f"layers.{i}.attn.wk",
            f"layers.{i}.attn.wv",
            f"layers.{i}.attn.q_bias",
            f"layers.{i}.attn.k_bias",
            f"layers.{i}.attn.v_bias",
            f"layers.{i}.attn.wo",
            f"layers.{i}.mlp_norm",
            f"layers.{i}.mlp.w_gate",
            f"layers.{i}.mlp.w_up",
            f"layers.{i}.mlp.w_down",
        }
    assert set(shapes) == expected


def test_tensor_shapes_follow_config(micro_config):
    shapes = tensor_shapes(micro_config)
    h, m, v = 8, 6, 16
    assert shapes["embed"] == (v, h)
    assert shapes["unembed"] == (h, v)
    assert shapes["layers.0.attn.wq"] == (h, micro_config.q_dim)
    assert shapes["layers.0.attn.wk"] == (h, micro_config.kv_dim)
    assert shapes["layers.0.attn.wo"] == (micro_config.q_dim, h)
    assert shapes["layers.1.mlp.w_gate"] == (h, m)
    assert shapes["layers.1.mlp.w_down"] == (m, h)
    assert shapes["layers.0.attn.q_bias"] == (micro_config.q_dim,)
    assert shapes["final_norm"] == (h,)


def test_tensor_names_without_bias(micro_config):
    cfg = dataclasses.replace(micro_config, qkv_bias=False)
    shapes = tensor_shapes(cfg)
    assert not any("bias" in name for name in shapes)


def test_tensor_names_moe(micro_config, moe_small):
    shapes = tensor_shapes(micro_config, moe=moe_small)
    assert "layers.0.moe.router" in shapes
    assert shapes["layers.0.moe.router"] == (8, 4)
    for j in range(4):
        assert shapes[f"layers.1.moe.expert.{j}.w_down"] == (6, 8)
    assert not any(".mlp." in name for name in shapes)


def test_random_init_matches_declared_shapes(micro_ckpt, micro_config):
    shapes = tensor_shapes(micro_config)
    assert set(micro_ckpt.tensors) == set(shapes)
    for name, arr in micro_ckpt.tensors.items():
        assert arr.shape == shapes[name], name
        assert arr.dtype == np.float32, name


def test_random_init_norm_gains_are_ones(micro_ckpt):
    for name, arr in micro_ckpt.tensors.items():
        if name.endswith("norm"):
            assert np.all(arr == 1.0), name


def test_random_init_seed_determinism(micro_config):
    a = random_init(micro_config, seed=11)
    b = random_init(micro_config, seed=11)
    c = random_init(micro_config, seed=12)
    for name in a.tensors:
        assert a.tensors[name].tobytes() == b.tensors[name].tobytes()
    assert any(
        a.tensors[n].tobytes() != c.tensors[n].tobytes()
        for n in a.tensors if not n.endswith("norm")
    )


def test_roundtrip_bitwise_dense(micro_ckpt, tmp_path):
    path = tmp_path / "ck"
    save_checkpoint(micro_ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == micro_ckpt.config
    assert loaded.moe is None
    assert set(loaded.tensors) == set(micro_ckpt.tensors)
    for name in micro_ckpt.tensors:
        assert loaded.tensors[name].tobytes() == micro_ckpt.tensors[name].tobytes()


def test_roundtrip_bitwise_moe(micro_ckpt, moe_small, tmp_path):
    ckpt = upcycle(micro_ckpt, moe_small, seed=5)
    path = tmp_path / "ck"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.moe == moe_small
    for name in ckpt.tensors:
        assert loaded.tensors[name].tobytes() == ckpt.tensors[name].tobytes()


def test_validate_missing_tensor(micro_ckpt):
    tensors = dict(micro_ckpt.tensors)
    del tensors["layers.1.mlp.w_up"]
    broken = Checkpoint(config=micro_ckpt.config, tensors=tensors)
    with pytest.raises(ValidationError, match="layers.1.mlp.w_up"):
        broken.validate()


def test_validate_extra_tensor(micro_ckpt):
    tensors = dict(micro_ckpt.tensors)
    tensors["layers.9.attn.wq"] = np.zeros((8, 8), dtype=np.float32)
    broken = Checkpoint(config=micro_ckpt.config, tensors=tensors)
    with pytest.raises(ValidationError, match="layers.9.attn.wq"):
        broken.validate()


def test_validate_shape_mismatch_names_both_shapes(micro_ckpt):
    tensors = dict(micro_ckpt.tensors)
    tensors["layers.0.attn.wq"] = np.zeros((8, 4), dtype=np.float32)
    broken = Checkpoint(config=micro_ckpt.config, tensors=tensors)
    with pytest.raises(ValidationError, match=r"(8, 4)"):
        broken.validate()


def test_validate_rejects_non_finite(micro_ckpt):
    tensors = {k: v.copy() for k, v in micro_ckpt.tensors.items()}
    tensors["embed"][0, 0] = np.nan
    broken = Checkpoint(config=micro_ckpt.config, tensors=tensors)
    with pytest.raises(ValidationError, match="embed"):
        broken.validate()


def test_validate_rejects_wrong_dtype(micro_ckpt):
    tensors = dict(micro_ckpt.tensors)
    tensors["embed"] = tensors["embed"].astype(np.float64)
    broken = Checkpoint(config=micro_ckpt.config, tensors=tensors)
    with pytest.raises(ValidationError, match="embed"):
        broken.validate()


def test_load_missing_path(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope")


def test_load_truncated_data(micro_ckpt, tmp_path):
    path = tmp_path / "ck"
    save_checkpoint(micro_ckpt, path)
    blob = (path / "tensors.bin").read_bytes()
    (path / "tensors.bin").write_bytes(blob[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_load_corrupt_header(micro_ckpt, tmp_path):
    path = tmp_path / "ck"
    save_checkpoint(micro_ckpt, path)
    blob = (path / "tensors.bin").read_bytes()
    (path / "tensors.bin").write_bytes(struct.pack("<Q", 5) + b"{not json" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_load_rejects_unknown_dtype_tag(micro_ckpt, tmp_path):
    path = tmp_path / "ck"
    save_checkpoint(micro_ckpt, path)
    blob = (path / "tensors.bin").read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + n])
    header["embed"]["dtype"] = "f16"
    new_header = json.dumps(header).encode()
    (path / "tensors.bin").write_bytes(
        struct.pack("<Q", len(new_header)) + new_header + blob[8 + n :]
    )
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _edit_header(path, edit):
    blob = (path / "tensors.bin").read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header = edit(json.loads(blob[8 : 8 + n]))
    new_header = json.dumps(header).encode()
    (path / "tensors.bin").write_bytes(
        struct.pack("<Q", len(new_header)) + new_header + blob[8 + n :]
    )


def _edit_entry(change):
    def edit(header):
        change(header["embed"])
        return header
    return edit


def _edit_config(path, edit):
    doc = json.loads((path / "config.json").read_text())
    (path / "config.json").write_text(json.dumps(edit(doc)))


def _write_long_first_offset(path):
    # a number int() refuses to parse by default, so json.dumps cannot write it
    blob = (path / "tensors.bin").read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    first = b'"data_offsets": [0, '  # embed's, the one entry that begins at 0
    assert blob[8 : 8 + n].count(first) == 1
    header = blob[8 : 8 + n].replace(first, b'"data_offsets": [' + b"9" * 5000 + b", ")
    (path / "tensors.bin").write_bytes(struct.pack("<Q", len(header)) + header + blob[8 + n :])


MALFORMED = {
    "header is a list": lambda p: _edit_header(p, lambda h: []),
    "entry without shape": lambda p: _edit_header(p, _edit_entry(lambda e: e.pop("shape"))),
    "entry is a number": lambda p: _edit_header(p, lambda h: dict(h, embed=5)),
    "shape is a string": lambda p: _edit_header(p, _edit_entry(lambda e: e.update(shape="ab"))),
    "config is a list": lambda p: _edit_config(p, lambda doc: []),
    "moe is a list": lambda p: _edit_config(p, lambda doc: dict(doc, moe=[])),
    "offsets are floats": lambda p: _edit_header(
        p, _edit_entry(lambda e: e.update(data_offsets=[float(v) for v in e["data_offsets"]]))
    ),
    "one offset": lambda p: _edit_header(
        p, _edit_entry(lambda e: e.update(data_offsets=e["data_offsets"][:1]))
    ),
    "an offset of 5000 digits": _write_long_first_offset,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_rejects_malformed_schema(micro_ckpt, tmp_path, case):
    path = tmp_path / "ck"
    save_checkpoint(micro_ckpt, path)
    MALFORMED[case](path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(
    st.tuples(st.integers(0, 2**16), st.one_of(st.sampled_from(b'0123456789[]{}",:-.e '),
                                                st.integers(0, 255))),
    min_size=1, max_size=4,
))
def test_header_byte_edits_raise_only_typed_errors(micro_ckpt, tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "header_fuzz"
    save_checkpoint(micro_ckpt, path)
    blob = bytearray((path / "tensors.bin").read_bytes())
    (n,) = struct.unpack("<Q", blob[:8])
    for pos, byte in edits:
        blob[pos % (8 + n)] = byte
    (path / "tensors.bin").write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except (CheckpointError, ValidationError):
        pass


def test_file_layout_header_then_raw_data(micro_ckpt, tmp_path):
    # The binary format is self-describing: u64 header length, JSON header,
    # then tightly packed little-endian binary32 payloads. Beside the tensors
    # the header holds only the config digest.
    path = tmp_path / "ck"
    save_checkpoint(micro_ckpt, path)
    blob = (path / "tensors.bin").read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + n].decode("utf-8"))
    metadata = header.pop("__metadata__")
    assert list(metadata) == ["config_digest"] and len(metadata["config_digest"]) == 32
    assert set(header) == set(micro_ckpt.tensors)
    start, end = header["embed"]["data_offsets"]
    raw = blob[8 + n + start : 8 + n + end]
    expected = micro_ckpt.tensors["embed"].astype("<f4").tobytes()
    assert raw == expected
    total = max(offs["data_offsets"][1] for offs in header.values())
    assert len(blob) == 8 + n + total


def count_dense_by_hand(cfg: ModelConfig) -> int:
    per_layer = (
        2 * cfg.hidden_dim
        + cfg.hidden_dim * cfg.q_dim * 2
        + cfg.hidden_dim * cfg.kv_dim * 2
        + 3 * cfg.hidden_dim * cfg.intermediate_dim
    )
    if cfg.qkv_bias:
        per_layer += cfg.q_dim + 2 * cfg.kv_dim
    return (
        cfg.n_layers * per_layer
        + 2 * cfg.vocab_size * cfg.hidden_dim
        + cfg.hidden_dim
    )


def test_count_micro_matches_enumeration(micro_config, micro_ckpt):
    counted = count_config_params(micro_config)
    assert counted.total == count_dense_by_hand(micro_config)
    assert counted.activated == counted.total
    assert count_params(micro_ckpt) == counted


def test_count_equals_sum_of_array_sizes(micro_ckpt):
    assert count_params(micro_ckpt).total == sum(
        arr.size for arr in micro_ckpt.tensors.values()
    )


def test_count_rejects_a_checkpoint_missing_a_tensor(micro_ckpt):
    tensors = dict(micro_ckpt.tensors)
    del tensors["layers.1.mlp.w_up"]
    broken = Checkpoint(config=micro_ckpt.config, tensors=tensors)
    with pytest.raises(ValidationError, match="layers.1.mlp.w_up"):
        count_params(broken)


BIG = ModelConfig(
    n_layers=40, hidden_dim=5120, n_heads=40, head_dim=128, kv_groups=8,
    intermediate_dim=20480, vocab_size=100000, qkv_bias=True,
)


def test_count_large_dense_frozen_value():
    counted = count_config_params(BIG)
    assert counted.total == 16_124_195_840
    assert counted.total == count_dense_by_hand(BIG)
    assert 15.5e9 <= counted.total <= 17.0e9


def test_count_large_moe_activated_frozen_value():
    moe = MoEConfig(n_experts=8, top_k=2)
    counted = count_config_params(BIG, moe=moe)
    assert counted.activated == 28_708_746_240
    assert 27e9 <= counted.activated <= 31e9
    expert = 3 * BIG.hidden_dim * BIG.intermediate_dim
    router = BIG.hidden_dim * moe.n_experts
    dense_total = count_config_params(BIG).total
    assert counted.total == dense_total + BIG.n_layers * (router + 8 * expert - expert)
    assert counted.activated == dense_total + BIG.n_layers * (router + expert)


def test_activated_identity_for_materialized_moe(micro_ckpt, moe_small):
    ckpt = upcycle(micro_ckpt, moe_small, seed=0)
    counted = count_params(ckpt)
    dense_total = count_params(micro_ckpt).total
    cfg = micro_ckpt.config
    expert = 3 * cfg.hidden_dim * cfg.intermediate_dim
    router = cfg.hidden_dim * moe_small.n_experts
    extra_per_layer = router + (moe_small.top_k - 1) * expert
    assert counted.activated == dense_total + cfg.n_layers * extra_per_layer
    assert counted.total == sum(a.size for a in ckpt.tensors.values())


def test_freeze_blocks_writes(micro_config):
    ckpt = random_init(micro_config, seed=0)
    frozen = ckpt.freeze()
    with pytest.raises((ValueError, RuntimeError)):
        frozen.tensors["embed"][0, 0] = 1.0


def thawed(ckpt: Checkpoint) -> Checkpoint:
    """An unfrozen checkpoint holding writable copies of ckpt's arrays."""
    tensors = {name: arr.copy() for name, arr in ckpt.tensors.items()}
    return Checkpoint(config=ckpt.config, tensors=tensors, moe=ckpt.moe)


def count_scans(monkeypatch) -> list:
    """Record every array np.isfinite is called on from now on."""
    calls, real = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: calls.append(x) or real(x, *a, **k))
    return calls


def test_frozen_checkpoint_rejects_edits_to_mapping_arrays_and_fields(micro_config, moe_small):
    frozen = random_init(micro_config, seed=0)
    zeros = np.zeros_like(frozen.tensors["embed"])
    with pytest.raises(TypeError):
        frozen.tensors["embed"] = zeros
    with pytest.raises(TypeError):
        del frozen.tensors["embed"]
    with pytest.raises(ValueError):
        frozen.tensors["embed"][0, 0] = 1.0
    with pytest.raises(AttributeError):
        frozen.moe = moe_small
    assert frozen.moe is None and frozen.freeze() is frozen


def test_validate_scans_once_at_freeze_and_never_after(micro_ckpt, monkeypatch):
    ckpt = thawed(micro_ckpt)
    scans = count_scans(monkeypatch)
    ckpt.validate()
    assert len(scans) == len(ckpt.tensors)
    scans.clear()
    ckpt.freeze()
    assert len(scans) == len(ckpt.tensors)
    scans.clear()
    ckpt.validate()
    micro_ckpt.validate()
    assert ckpt.freeze() is ckpt
    assert scans == []


def test_only_a_frozen_checkpoint_spares_its_arrays_the_finiteness_scan(micro_ckpt, monkeypatch):
    ckpt = thawed(micro_ckpt)
    ckpt.tensors["layers.0.mlp.w_up"][0, 0] = np.nan
    shared = Checkpoint(config=ckpt.config, tensors=dict(ckpt.tensors))
    with pytest.raises(ValidationError, match="layers.0.mlp.w_up"):
        shared._freeze_from(ckpt)
    scans = count_scans(monkeypatch)
    Checkpoint(config=micro_ckpt.config, tensors=dict(micro_ckpt.tensors))._freeze_from(micro_ckpt)
    assert scans == []


def test_freeze_rejects_non_finite_values_and_leaves_the_checkpoint_unfrozen(micro_ckpt):
    ckpt = thawed(micro_ckpt)
    ckpt.tensors["layers.1.attn.wo"][1, 0] = np.inf
    with pytest.raises(ValidationError, match="layers.1.attn.wo"):
        ckpt.freeze()
    ckpt.tensors["layers.1.attn.wo"][1, 0] = 0.0
    assert ckpt.freeze().tensors["layers.1.attn.wo"][1, 0] == 0.0


def test_an_array_held_under_several_names_is_scanned_once(micro_ckpt, moe_small, monkeypatch):
    shared = thawed(upcycle(micro_ckpt, moe_small, seed=0))
    for i in range(micro_ckpt.config.n_layers):
        for role in ("w_gate", "w_up", "w_down"):
            one = shared.tensors[f"layers.{i}.moe.expert.0.{role}"]
            for j in range(moe_small.n_experts):
                shared.tensors[f"layers.{i}.moe.expert.{j}.{role}"] = one
    distinct = {id(arr) for arr in shared.tensors.values()}
    assert len(distinct) < len(shared.tensors)
    scans = count_scans(monkeypatch)
    shared.validate()
    assert sorted(id(arr) for arr in scans) == sorted(distinct)
    # a non-finite value in the shared array still fails, under its first name
    shared.tensors["layers.1.moe.expert.3.w_up"][0, 0] = np.nan
    with pytest.raises(ValidationError, match="layers.1.moe.expert.0.w_up"):
        shared.freeze()


def traced_peak(fn):
    """Peak bytes traced while fn runs, and what it returned or raised."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except Exception as exc:  # returned for the caller to assert on
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_load_holds_one_copy_of_the_data(tmp_path):
    cfg = ModelConfig(
        n_layers=2, hidden_dim=256, n_heads=8, head_dim=32, kv_groups=4,
        intermediate_dim=512, vocab_size=512, qkv_bias=True, context_length=64,
    )
    ckpt = random_init(cfg, seed=0)
    save_checkpoint(ckpt, tmp_path)
    data_bytes = sum(arr.nbytes for arr in ckpt.tensors.values())
    peak, loaded = traced_peak(lambda: load_checkpoint(tmp_path))
    assert isinstance(loaded, Checkpoint)
    assert peak < 1.25 * data_bytes, peak / data_bytes
    for name, arr in ckpt.tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes()
        assert not loaded.tensors[name].flags.writeable


@pytest.mark.parametrize("shift", [0, 4])
def test_load_rejects_overlapping_tensors(micro_ckpt, tmp_path, shift):
    # unembed (hidden, vocab) has embed's byte length, so only the overlap is wrong
    def alias(header):
        begin, end = header["embed"]["data_offsets"]
        header["unembed"]["data_offsets"] = [begin + shift, end + shift]
        return header

    save_checkpoint(micro_ckpt, tmp_path)
    _edit_header(tmp_path, alias)
    with pytest.raises(CheckpointError, match="'unembed'"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("at", [0, 1, 5])
def test_load_rejects_unread_bytes_before_or_between_tensors(micro_ckpt, tmp_path, at):
    # 4 bytes no tensor reads go in front of the at-th tensor of the file and
    # every later span moves past them, so the spans still neither overlap
    # nor leave their bounds
    save_checkpoint(micro_ckpt, tmp_path)
    blob = (tmp_path / "tensors.bin").read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header, data = json.loads(blob[8 : 8 + n]), blob[8 + n :]
    tensors = [name for name in header if name != "__metadata__"]
    order = sorted(tensors, key=lambda name: header[name]["data_offsets"])
    cut = header[order[at]]["data_offsets"][0]
    for name in order[at:]:
        header[name]["data_offsets"] = [offset + 4 for offset in header[name]["data_offsets"]]
    new_header = json.dumps(header).encode()
    (tmp_path / "tensors.bin").write_bytes(
        struct.pack("<Q", len(new_header)) + new_header + data[:cut] + bytes(4) + data[cut:]
    )
    with pytest.raises(CheckpointError, match=re.escape(repr(order[at]))):
        load_checkpoint(tmp_path)
    # bytes after the last tensor are still ignored
    (tmp_path / "tensors.bin").write_bytes(blob + bytes(4))
    loaded = load_checkpoint(tmp_path)
    assert all(loaded.tensors[k].tobytes() == v.tobytes() for k, v in micro_ckpt.tensors.items())


def test_a_save_that_fails_partway_leaves_the_old_checkpoint(micro_ckpt, micro_config,
                                                            tmp_path, monkeypatch):
    save_checkpoint(micro_ckpt, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real = np.ascontiguousarray
    calls = []

    def fail_on_third_tensor(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("no space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", fail_on_third_tensor)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(random_init(micro_config, seed=99), tmp_path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded = load_checkpoint(tmp_path)
    for name, arr in micro_ckpt.tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes()

    other = random_init(micro_config, seed=99)
    save_checkpoint(other, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "tensors.bin"]
    assert load_checkpoint(tmp_path).tensors["embed"].tobytes() == other.tensors["embed"].tobytes()


def test_load_rejects_a_config_claiming_more_layers_before_expanding_it(micro_ckpt, tmp_path):
    save_checkpoint(micro_ckpt, tmp_path)
    _edit_config(tmp_path, lambda doc: dict(doc, n_layers=100_000))
    peak, error = traced_peak(lambda: load_checkpoint(tmp_path))
    assert peak < 10 * 2**20, peak
    assert isinstance(error, ValidationError), error
    assert "implies" in str(error)


def test_tensors_and_config_of_different_saves_do_not_load(micro_ckpt, tmp_path):
    # a crash between the two renames of a save leaves the new tensors.bin
    # beside the old config.json; top_k changes no shape, so only the
    # config digest in the header tells the two saves apart
    one = upcycle(micro_ckpt, MoEConfig(n_experts=4, top_k=1), seed=5)
    two = upcycle(micro_ckpt, MoEConfig(n_experts=4, top_k=2), seed=5)
    save_checkpoint(one, tmp_path / "one")
    save_checkpoint(two, tmp_path / "two")
    blob_one = (tmp_path / "one" / "tensors.bin").read_bytes()
    blob_two = (tmp_path / "two" / "tensors.bin").read_bytes()
    (tmp_path / "one" / "tensors.bin").write_bytes(blob_two)
    (tmp_path / "two" / "tensors.bin").write_bytes(blob_one)
    for name in ("one", "two"):
        with pytest.raises(CheckpointError, match="different config.json"):
            load_checkpoint(tmp_path / name)


def test_a_header_without_a_config_digest_still_loads(micro_ckpt, tmp_path):
    save_checkpoint(micro_ckpt, tmp_path)
    _edit_header(tmp_path, lambda header: {k: v for k, v in header.items() if k != "__metadata__"})
    loaded = load_checkpoint(tmp_path)
    assert all(loaded.tensors[k].tobytes() == v.tobytes() for k, v in micro_ckpt.tensors.items())


def test_a_malformed_metadata_entry_is_a_checkpoint_error(micro_ckpt, tmp_path):
    save_checkpoint(micro_ckpt, tmp_path)
    _edit_header(tmp_path, lambda header: dict(header, __metadata__=[]))
    with pytest.raises(CheckpointError, match="__metadata__"):
        load_checkpoint(tmp_path)


def _write_reversed_but_packed(path, ckpt):
    # the tensors packed in reverse name order: a layout a reader of the
    # offsets alone would accept, but not the one a save writes
    blob = (path / "tensors.bin").read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + n])
    reordered, data, offset = {"__metadata__": header.pop("__metadata__")}, [], 0
    for name in sorted(header, reverse=True):
        raw = ckpt.tensors[name].astype("<f4").tobytes()
        reordered[name] = dict(header[name], data_offsets=[offset, offset + len(raw)])
        data.append(raw)
        offset += len(raw)
    new_header = json.dumps(reordered).encode()
    (path / "tensors.bin").write_bytes(struct.pack("<Q", len(new_header)) + new_header + b"".join(data))


NOT_WHAT_A_SAVE_WRITES = {
    "reversed but packed order": _write_reversed_but_packed,
    "an extra key": lambda path, ckpt: _edit_header(
        path, _edit_entry(lambda e: e.update(note="made elsewhere"))),
    "false for offset 0": lambda path, ckpt: _edit_header(
        path, _edit_entry(lambda e: e.update(data_offsets=[False, e["data_offsets"][1]]))),
    "a name the config does not imply": lambda path, ckpt: _edit_header(
        path, lambda h: {("embedding" if k == "embed" else k): v for k, v in h.items()}),
    "a wrong shape of the same size": lambda path, ckpt: _edit_header(
        path, _edit_entry(lambda e: e.update(shape=e["shape"][::-1]))),
}


@pytest.mark.parametrize("case", sorted(NOT_WHAT_A_SAVE_WRITES))
def test_load_accepts_only_the_header_a_save_writes(micro_ckpt, tmp_path, case):
    # embed, first in file order, is the tensor where each header differs
    save_checkpoint(micro_ckpt, tmp_path)
    NOT_WHAT_A_SAVE_WRITES[case](tmp_path, micro_ckpt)
    with pytest.raises(CheckpointError, match="'embed'"):
        load_checkpoint(tmp_path)


def _arange_checkpoint(config, moe=None):
    tensors, start = {}, 0
    for name, shape in tensor_shapes(config, moe).items():
        size = math.prod(shape)
        tensors[name] = np.arange(start, start + size, dtype=np.float32).reshape(shape)
        start += size
    return Checkpoint(config=config, tensors=tensors, moe=moe)


@pytest.mark.parametrize("routed, digests", [
    (False, {"tensors.bin": "610017df6763e6c2bde2ac67ac7b937f",
             "config.json": "a2ae51b2ab9777f3ab913ad5259e885b"}),
    (True, {"tensors.bin": "96a668264177b384931f7449694fc0d2",
            "config.json": "d1358fca4f230d9f630429179d8c1936"}),
])
def test_saved_bytes_are_pinned(micro_config, moe_small, tmp_path, routed, digests):
    # arange values keep the digests off the random stream; a change to the
    # file format shows here before any reader meets it
    ckpt = _arange_checkpoint(micro_config, moe_small if routed else None)
    save_checkpoint(ckpt, tmp_path)
    for name, digest in digests.items():
        assert hashlib.blake2b((tmp_path / name).read_bytes(), digest_size=16).hexdigest() == digest
    loaded = load_checkpoint(tmp_path)
    assert all(loaded.tensors[k].tobytes() == v.tobytes() for k, v in ckpt.tensors.items())
