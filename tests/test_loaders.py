"""Binary and CSV loaders: invalid contents name the file, fuzzed files
fail only with a ``ValueError`` naming the file or load as valid objects,
and a trained model's file copy equals it field by field."""

import csv
import functools
import math
import re
import struct
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svbackend import dataset, gplda
from svbackend.dataset import (
    GeneratorConfig,
    load_ivectors,
    load_trials,
    save_ivectors,
    synth_dataset,
)
from svbackend.gplda import (
    PldaModel,
    length_normalize,
    load_plda,
    read_scores,
    save_plda,
    train_gplda,
)
from svbackend.idv import IdvTransform, IdvVariant, estimate_modified_idv, load_idv, save_idv
from svbackend.lda import (
    LDA_MAGIC,
    UNIT_NORM_TOLERANCE,
    LdaTransform,
    apply_lda,
    load_lda,
    save_lda,
    train_lda,
)

from conftest import make_dataset


def _ivec_record(utt: bytes, spk: bytes, dom: bytes, duration: float, values) -> bytes:
    parts = [struct.pack("<I", len(t)) + t for t in (utt, spk, dom)]
    return b"".join(parts) + struct.pack("<d", duration) + np.asarray(values, "<f8").tobytes()


def _ivec_file(path, *records: bytes, dim: int = 2) -> None:
    path.write_bytes(b"IVEC1" + struct.pack("<IQ", dim, len(records)) + b"".join(records))


_SCORE_HEAD = "enrol,test,label,raw_llr,norm_llr"

#: An id longer than ``csv.field_size_limit()``.
_LONG = "u" * 200_000


def _raises_naming(path, pattern: str):
    return pytest.raises(ValueError, match=rf"^{path}: {pattern}")


class TestContentErrorsNameTheFile:
    def test_ivec_non_finite_value(self, tmp_path):
        path = tmp_path / "x.ivec"
        _ivec_file(
            path,
            _ivec_record(b"a", b"s", b"in", 1.0, [1.0, 2.0]),
            _ivec_record(b"b", b"s", b"in", 1.0, [1.0, math.nan]),
        )
        with _raises_naming(path, "record 1: ivector 'b': values contain non-finite"):
            load_ivectors(path)

    def test_ivec_non_positive_duration(self, tmp_path):
        path = tmp_path / "x.ivec"
        _ivec_file(path, _ivec_record(b"a", b"s", b"in", 0.0, [1.0, 2.0]))
        with _raises_naming(path, "record 0: ivector 'a': duration_sec must be positive"):
            load_ivectors(path)

    def test_ivec_infinite_duration(self, tmp_path):
        path = tmp_path / "x.ivec"
        _ivec_file(
            path,
            _ivec_record(b"a", b"s", b"in", 1.0, [1.0, 2.0]),
            _ivec_record(b"b", b"s", b"in", math.inf, [1.0, 2.0]),
        )
        with _raises_naming(path, "record 1: ivector 'b': duration_sec must be positive and"):
            load_ivectors(path)

    def test_ivec_invalid_utf8(self, tmp_path):
        path = tmp_path / "x.ivec"
        _ivec_file(
            path,
            _ivec_record(b"a", b"s", b"in", 1.0, [1.0, 2.0]),
            _ivec_record(b"\xff\xfe", b"s", b"in", 1.0, [1.0, 2.0]),
        )
        with _raises_naming(path, "record 1: id is not valid UTF-8"):
            load_ivectors(path)

    def test_ivec_duplicate_id(self, tmp_path):
        path = tmp_path / "x.ivec"
        rec = _ivec_record(b"a", b"s", b"in", 1.0, [1.0, 2.0])
        _ivec_file(path, rec, rec)
        with _raises_naming(path, "record 1: duplicate utterance id 'a'"):
            load_ivectors(path)

    def test_ivec_zero_dimension(self, tmp_path):
        path = tmp_path / "x.ivec"
        _ivec_file(path, dim=0)
        with _raises_naming(path, "header dimension must be positive$"):
            load_ivectors(path)

    @pytest.mark.parametrize(
        "second, message",
        [
            (b"\x01\x00", "truncated record 1 id length"),
            (_ivec_record(b"b", b"s", b"in", 1.0, [])[:-4], "truncated record 1 duration"),
        ],
    )
    def test_ivec_truncated_later_record(self, tmp_path, second, message):
        """Record 0's long id lets the file pass the header's minimum-size
        check, so the cut is found while record 1 is read."""
        path = tmp_path / "x.ivec"
        _ivec_file(path, _ivec_record(b"a" * 100, b"s", b"in", 1.0, [1.0, 2.0]), second)
        with _raises_naming(path, f"{message}$"):
            load_ivectors(path)

    def test_ivec_unknown_domain(self, tmp_path):
        path = tmp_path / "x.ivec"
        _ivec_file(
            path,
            _ivec_record(b"a", b"s", b"in", 1.0, [1.0, 2.0]),
            _ivec_record(b"b", b"s", b"mars", 1.0, [1.0, 2.0]),
        )
        with _raises_naming(path, "record 1: unknown domain 'mars'$"):
            load_ivectors(path)

    def test_ivec_count_beyond_file_size(self, tmp_path):
        path = tmp_path / "x.ivec"
        path.write_bytes(b"IVEC1" + struct.pack("<IQ", 4, 2**60))
        with _raises_naming(path, "header claims"):
            load_ivectors(path)

    def test_csv_contents_name_the_line(self, tmp_path):
        path = tmp_path / "x.csv"
        head = "id,speaker,domain,duration,v0,v1\n"
        path.write_text(head + "a,s,in,1.0,1.0,2.0\nb,s,in,1.0,nan,2.0\n")
        with _raises_naming(path, "line 3: ivector 'b': values contain non-finite"):
            load_ivectors(path, "csv")
        path.write_text(head + "a,s,in,-1.0,1.0,2.0\n")
        with _raises_naming(path, "line 2: ivector 'a': duration_sec must be positive"):
            load_ivectors(path, "csv")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing or malformed header"),
            ("id,speaker,dom,duration,v0\n", "missing or malformed header"),
            ("id,speaker,domain,duration\n", "header carries no value columns"),
            ("id,speaker,domain,duration,v0\na,s,far,1.0,1.0\n", "line 2: unknown domain 'far'"),
            ("id,speaker,domain,duration,v0\na,s,in,1.0,x\n", "line 2: malformed number"),
            ("id,speaker,domain,duration,v0\na,s,in,1.0,1.0\nb,s,in,inf,1.0\n",
             "line 3: ivector 'b': duration_sec must be positive and finite"),
            # the skipped blank row still counts as a line
            ("id,speaker,domain,duration,v0\na,s,in,1.0,1.0\n\nb,s,in,,1.0\n",
             "line 4: malformed number"),
        ],
    )
    def test_csv_structure_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with _raises_naming(path, re.escape(message) + "$"):
            load_ivectors(path, "csv")

    def test_lda_invalid_transform(self, tmp_path):
        path = tmp_path / "x.lda"
        d, k = 2, 3
        path.write_bytes(LDA_MAGIC + struct.pack("<II", d, k) + np.ones(k + d * k).tobytes())
        with _raises_naming(path, "cannot retain more directions"):
            load_lda(path)
        save_lda(LdaTransform(np.eye(2), [2.0, 1.0]), path)
        data = bytearray(path.read_bytes())
        data[12:28] = np.array([1.0, 2.0]).tobytes()  # eigenvalues ascending
        path.write_bytes(bytes(data))
        with _raises_naming(path, "eigenvalues must be sorted"):
            load_lda(path)

    def test_lda_column_off_unit_length(self, tmp_path):
        path = tmp_path / "x.lda"
        save_lda(LdaTransform(np.eye(2), [2.0, 1.0]), path)
        data = bytearray(path.read_bytes())
        data[35] ^= 0x20  # an exponent bit of a_matrix[0, 0]: 1.0 becomes 2**-512
        path.write_bytes(bytes(data))
        with _raises_naming(path, "a_matrix column 0 is not unit length"):
            load_lda(path)

    @pytest.mark.parametrize(
        "name, lines, loader",
        [
            ("trials.txt", [b"e1 t1 target", b"e1 \xff\xfe nontarget"], load_trials),
            (
                "scores.csv",
                [b"enrol,test,label,raw_llr,norm_llr", b"e1,t1,target,1.0,",
                 b"e1,\xff\xfe,nontarget,0.5,"],
                read_scores,
            ),
            (
                "x.csv",
                [b"id,speaker,domain,duration,v0", b"a,s,in,1.0,1.0", b"\xff\xfe,s,in,1.0,2.0"],
                functools.partial(load_ivectors, format="csv"),
            ),
        ],
    )
    def test_text_file_invalid_utf8_names_the_line(self, tmp_path, name, lines, loader):
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines) + b"\n")
        with _raises_naming(path, f"line {len(lines)}: not valid UTF-8"):
            loader(path)

    @pytest.mark.parametrize("chars", [1, 30, 1 << 20])
    @pytest.mark.parametrize(
        "head, row, loader",
        [
            ([], "e{0} t{0} target", load_trials),
            ([_SCORE_HEAD], "e{0},t{0},target,1.0,", read_scores),
            (["id,speaker,domain,duration,v0"], "u{0},s,in,1.0,1.0",
             functools.partial(load_ivectors, format="csv")),
        ],
        ids=["trials", "scores", "ivectors"],
    )
    def test_invalid_utf8_in_a_later_block_is_named_from_one_open(
        self, tmp_path, monkeypatch, chars, head, row, loader
    ):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        for module in (dataset, gplda):
            monkeypatch.setattr(module, "open", counting_open, raising=False)
        lines = [line.encode() for line in head + [row.format(k) for k in range(60)]]
        lines[50] = b"\xff" + lines[50]
        path = tmp_path / "file"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with _raises_naming(path, "line 51: not valid UTF-8$"):
            loader(path)
        assert opened == [path]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "enrol,test,label,raw,norm_llr\ne1,t1,target,1.0,\n",
            "enrol,test,label,raw_llr\ne1,t1,target,1.0,\n",
            "enrol,test,label,raw_llr,norm_llr,x\ne1,t1,target,1.0,\n",
            "\nenrol,test,label,raw_llr,norm_llr\ne1,t1,target,1.0,\n",
            'enrol,test,label,raw_llr,"norm\n_llr"\ne1,t1,target,1.0,\n',
        ],
        ids=["empty", "wrong-names", "4-fields", "6-fields", "blank-first-line", "quoted-2-lines"],
    )
    def test_score_header_must_be_the_five_columns(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        with _raises_naming(path, "missing or malformed score header$"):
            read_scores(path)

    @pytest.mark.parametrize(
        "name, lines, loader",
        [
            ("scores.csv", [_SCORE_HEAD, "e1,t1,target,1.0,", f"{_LONG},t2,nontarget,0.5,"],
             read_scores),
            ("scores.csv", [_SCORE_HEAD, "e1,t1,target,1.0,", f'"{_LONG}",t2,nontarget,0.5,'],
             read_scores),
            ("scores.csv", [_SCORE_HEAD, f'e1,"t\n{_LONG}",target,1.0,'], read_scores),
            ("scores.csv", [f"enrol,test,label,raw_llr,{_LONG}"], read_scores),
            ("x.csv", ["id,speaker,domain,duration,v0", "a,s,in,1.0,1.0", f"{_LONG},s,in,1.0,2.0"],
             functools.partial(load_ivectors, format="csv")),
        ],
        ids=["score-id", "score-quoted-id", "score-multiline-id", "score-header", "ivector-id"],
    )
    def test_csv_field_over_the_size_limit_names_the_line(self, tmp_path, name, lines, loader):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        n_lines = sum(line.count("\n") + 1 for line in lines)
        message = f"field larger than field limit ({csv.field_size_limit()})"
        with _raises_naming(path, f"line {n_lines}: {re.escape(message)}$"):
            loader(path)

    def test_idv_non_whitening_decorrelator(self, tmp_path):
        path = tmp_path / "x.idv"
        s, dmat = np.eye(2), 2.0 * np.eye(2)
        path.write_bytes(
            b"IDV1" + struct.pack("<BId", 1, 2, 0.0) + s.tobytes() + dmat.tobytes()
        )
        with _raises_naming(path, "decorrelator does not whiten"):
            load_idv(path)

    def test_idv_unknown_variant_byte(self, tmp_path):
        path = tmp_path / "x.idv"
        save_idv(IdvTransform(IdvVariant.MODIFIED, np.eye(2), np.eye(2), 0.0), path)
        data = bytearray(path.read_bytes())
        data[len(b"IDV1")] = 2  # the variant byte follows the magic
        path.write_bytes(bytes(data))
        with _raises_naming(path, "unknown IDV variant byte 2$"):
            load_idv(path)

    def test_plda_nan_and_too_many_eigenvoices(self, tmp_path):
        path = tmp_path / "x.plda"
        k, q = 2, 1
        lam = np.eye(k)
        lam[0, 1] = math.nan
        blob = np.zeros(k).tobytes() + np.zeros((k, q)).tobytes() + lam.tobytes()
        path.write_bytes(b"PLDA1" + struct.pack("<II", k, q) + blob)
        with _raises_naming(path, "lambda_prec has non-finite entries"):
            load_plda(path)
        q = 3
        blob = np.zeros(k).tobytes() + np.zeros((k, q)).tobytes() + np.eye(k).tobytes()
        path.write_bytes(b"PLDA1" + struct.pack("<II", k, q) + blob)
        with _raises_naming(path, "more eigenvoices than dimensions"):
            load_plda(path)

    def test_plda_overflowing_covariance_names_file(self, tmp_path):
        """A finite ``u1`` whose ``u1 @ u1.T`` overflows is rejected when the
        file loads, without a RuntimeWarning, not at scoring."""
        path = tmp_path / "x.plda"
        blob = np.zeros(2).tobytes() + np.array([[1e200], [1.0]]).tobytes() + np.eye(2).tobytes()
        path.write_bytes(b"PLDA1" + struct.pack("<II", 2, 1) + blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _raises_naming(path, "sigma_between has non-finite entries"):
                load_plda(path)
            with pytest.raises(ValueError, match="lambda_prec is not symmetric"):
                PldaModel(np.zeros(2), np.zeros((2, 1)), [[1e300, 1e299], [0.0, 1e300]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: IdvTransform(IdvVariant.MODIFIED, [[1e300, 1e299], [0.0, 1e300]],
                                  np.eye(2), 0.0), "s_idv is not symmetric"),
            (lambda: IdvTransform(IdvVariant.MODIFIED, np.eye(2), 1e200 * np.eye(2), 0.0),
             "decorrelator does not whiten"),
            (lambda: LdaTransform([[1e300], [1e300]], [1.0]), "column 0 is not unit length"),
        ],
    )
    def test_huge_finite_entries_fail_without_overflow_warnings(self, build, message):
        """The overflowing norms and products of the fuzzed model files are
        read as failed checks, without a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("loader", [load_ivectors, load_lda, load_idv, load_plda])
    def test_short_header(self, tmp_path, loader):
        path = tmp_path / "x.bin"
        magics = {load_ivectors: b"IVEC1", load_lda: b"LDA1", load_idv: b"IDV1", load_plda: b"PLDA1"}
        magic = magics[loader]
        path.write_bytes(magic + b"\x01")
        with _raises_naming(path, "truncated"):
            loader(path)


# ---------------------------------------------------------------------------
# fuzz


@functools.cache
def _valid_files() -> dict[str, bytes]:
    """One small valid file per binary loader."""
    with tempfile.TemporaryDirectory() as tmp:
        return _write_valid_files(Path(tmp))


def _write_valid_files(tmp_path: Path) -> dict[str, bytes]:
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.standard_normal((4, 3)), ["a", None, "b", "a"])
    save_ivectors(ds, tmp_path / "v.ivec")
    basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    basis *= np.sign(basis[np.abs(basis).argmax(axis=0), [0, 1]])  # sign-fixed columns
    save_lda(LdaTransform(basis, [3.0, 1.0]), tmp_path / "v.lda")
    out = make_dataset(rng.standard_normal((6, 3)) + 2.0, prefix="o")
    idv = estimate_modified_idv(out, make_dataset(rng.standard_normal((6, 3))), 1e-6)
    save_idv(idv, tmp_path / "v.idv")
    lam = rng.standard_normal((3, 3))
    save_plda(PldaModel(np.zeros(3), rng.standard_normal((3, 2)), lam @ lam.T + np.eye(3)),
              tmp_path / "v.plda")
    return {
        name: (tmp_path / f"v.{name}").read_bytes() for name in ("ivec", "lda", "idv", "plda")
    }


def _check_loaded(kind: str, obj, raw: bytes, tmp_path) -> None:
    """A successful load returns an object that holds its type's invariants."""
    if kind == "ivec":
        assert np.isfinite(obj.matrix()).all() and (obj.durations > 0).all()
        assert len(set(obj.ids)) == len(obj)
        save_ivectors(obj, tmp_path / "again.ivec")
        assert (tmp_path / "again.ivec").read_bytes() == raw
    elif kind == "lda":
        assert np.isfinite(obj.a_matrix).all() and np.isfinite(obj.eigenvalues).all()
        assert np.all(np.diff(obj.eigenvalues) <= 0)
        assert obj.output_dim <= obj.input_dim
        a = obj.a_matrix
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0, atol=UNIT_NORM_TOLERANCE)
        assert (a[np.abs(a).argmax(axis=0), np.arange(a.shape[1])] > 0).all()
    elif kind == "idv":
        d = obj.decorrelator
        inv = np.linalg.inv(obj.s_idv + obj.ridge * np.eye(obj.dim))
        assert np.linalg.norm(d @ d.T - inv) <= 1e-8 * np.linalg.norm(inv)
    else:
        assert np.isfinite(obj.lambda_prec).all() and np.isfinite(obj.u1).all()
        np.linalg.cholesky(obj.lambda_prec)


_LOADERS = {"ivec": load_ivectors, "lda": load_lda, "idv": load_idv, "plda": load_plda}


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    kind=st.sampled_from(sorted(_LOADERS)),
    cut=st.one_of(st.none(), st.integers(min_value=0)),
    flips=st.lists(st.integers(min_value=0), max_size=4),
)
def test_fuzzed_binary_files_fail_by_name_or_load_valid(tmp_path, kind, cut, flips):
    raw = bytearray(_valid_files()[kind])
    for bit in flips:
        bit %= 8 * len(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
    if cut is not None:
        raw = raw[: cut % len(raw)]
    path = tmp_path / f"fuzzed.{kind}"
    path.write_bytes(bytes(raw))
    try:
        obj = _LOADERS[kind](path)
    except ValueError as e:
        assert str(e).startswith(f"{path}: "), str(e)
        return
    _check_loaded(kind, obj, bytes(raw), tmp_path)


def test_trained_models_equal_their_file_copies_field_by_field(tmp_path):
    """Every field of a trained IDV, LDA and PLDA model is one its file
    stores; the PLDA log-likelihood trace alone is not persisted."""
    gen = GeneratorConfig(
        dim=6, n_speakers=12, sessions_per_speaker=4, eigenvoice_dim=3,
        domain_offset=[1.0, -1.0] * 3, seed=5,
    )
    in_ds, out_ds = synth_dataset(gen)
    lda_t = train_lda(out_ds, 4)
    plda = train_gplda(length_normalize(apply_lda(lda_t, out_ds)), q=2, iters=3)
    for model, save, load in (
        (estimate_modified_idv(out_ds, in_ds), save_idv, load_idv),
        (lda_t, save_lda, load_lda),
        (plda, save_plda, load_plda),
    ):
        path = tmp_path / load.__name__
        save(model, path)
        copy = load(path)
        for f in fields(model):
            if f.name != "loglik_trace":
                assert np.array_equal(getattr(copy, f.name), getattr(model, f.name)), f.name
