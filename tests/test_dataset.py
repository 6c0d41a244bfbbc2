import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svbackend import dataset
from svbackend.dataset import (
    Dataset,
    Domain,
    GeneratorConfig,
    TrialList,
    apply_duration_noise,
    ground_truth_subspace,
    load_ivectors,
    load_trials,
    save_ivectors,
    save_trials,
    synth_domain,
)

from conftest import make_dataset, make_scoreset, make_trials
from oracles import ivec_bytes_per_row, ivec_csv_per_row, speaker_rows, synth_matrix, trial_rows


class TestTypes:
    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda: make_dataset(np.zeros((3, 2)), speakers=["a", None, "a"]),
             "Dataset(3 i-vectors of dim 2, 1 speakers)"),
            (lambda: make_trials([("e1", "t1", True), ("e1", "t2", False)]),
             "TrialList(2 trials over 1 enrol x 2 test ids)"),
            (lambda: make_scoreset([1.0], [0.5, -0.5]),
             "ScoreSet(TrialList(3 trials over 3 enrol x 3 test ids), normalized=False)"),
        ],
        ids=["Dataset", "TrialList", "ScoreSet"],
    )
    def test_container_repr_and_comparison_with_another_type(self, build, text):
        """Against a non-instance ``__eq__`` returns ``NotImplemented``, so
        Python's fallback makes ``==`` False and ``!=`` True."""
        container = build()
        assert repr(container) == text
        assert container.__eq__(text) is NotImplemented
        assert not container == text and container != text
        assert container == build() and not container != build()

    def test_empty_dataset_needs_dim(self):
        with pytest.raises(ValueError, match="dim"):
            Dataset(np.empty(0), (), (), (), ())
        ds = make_dataset(np.empty((0, 500)))
        assert ds.matrix().shape == (0, 500)

    def test_index_covers_labeled_items_only(self):
        ds = make_dataset(np.array([[1.0], [2.0], [3.0]]), speakers=["s1", None, "s1"])
        assert ds.speakers == ("s1",) and speaker_rows(ds, 0) == [0, 2]
        assert ds.speaker_code.tolist() == [0, -1, 0]
        assert not ds.labeled


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(dim=5, n_speakers=4, sessions_per_speaker=3, eigenvoice_dim=2, seed=9)
        for domain in Domain:
            assert synth_domain(cfg, domain) == synth_domain(cfg, domain)

    def test_no_channel_noise_means_identical_sessions(self):
        cfg = GeneratorConfig(
            dim=4, n_speakers=3, sessions_per_speaker=4, eigenvoice_dim=2,
            channel_scale=0.0, seed=3,
        )
        in_ds, out_ds = (synth_domain(cfg, d) for d in Domain)
        for ds in (in_ds, out_ds):
            for code in range(len(ds.speakers)):
                rows = ds.matrix()[speaker_rows(ds, code)]
                assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_domain_offset_matches_sample_mean_diff(self):
        # law-of-large-numbers check against a direct sample-mean oracle
        offset = np.array([1.2, -0.8, 0.5, 1.1])
        cfg = GeneratorConfig(
            dim=4, n_speakers=50, sessions_per_speaker=5, eigenvoice_dim=2,
            speaker_scale=1.0, channel_scale=1.0, domain_offset=offset, seed=11,
        )
        in_ds, out_ds = (synth_domain(cfg, d) for d in Domain)
        diff = out_ds.matrix().mean(axis=0) - in_ds.matrix().mean(axis=0)
        u = ground_truth_subspace(cfg)
        per_coord_var = np.diag(u @ u.T) * cfg.speaker_scale**2 + cfg.channel_scale**2
        se = np.sqrt(2 * per_coord_var / len(in_ds))
        assert np.all(np.abs(diff - offset) <= 3.0 * se)

    def test_population_covariance_moments(self):
        # sample covariance over many speakers vs s^2 UU' + c^2 I
        cfg = GeneratorConfig(
            dim=6, n_speakers=2500, sessions_per_speaker=4, eigenvoice_dim=2,
            speaker_scale=1.3, channel_scale=0.8, seed=21,
        )
        in_ds = synth_domain(cfg, Domain.IN_DOMAIN)
        mat = in_ds.matrix()
        assert mat.shape[0] >= 10_000
        centered = mat - mat.mean(axis=0)
        sample_cov = centered.T @ centered / mat.shape[0]
        u = ground_truth_subspace(cfg)
        expected = cfg.speaker_scale**2 * (u @ u.T) + cfg.channel_scale**2 * np.eye(6)
        rel = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
        assert rel <= 0.05

    def test_out_channel_scale_controls_out_domain_spread(self):
        cfg = GeneratorConfig(
            dim=5, n_speakers=1500, sessions_per_speaker=4, eigenvoice_dim=2,
            speaker_scale=0.0, channel_scale=0.5, out_channel_scale=1.5, seed=5,
        )
        in_ds, out_ds = (synth_domain(cfg, d) for d in Domain)
        in_var = in_ds.matrix().var(axis=0).mean()
        out_var = out_ds.matrix().var(axis=0).mean()
        assert in_var == pytest.approx(0.25, rel=0.05)
        assert out_var == pytest.approx(2.25, rel=0.05)

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="speaker"):
            GeneratorConfig(dim=4, n_speakers=0)
        with pytest.raises(ValueError, match="dim"):
            GeneratorConfig(dim=0)
        with pytest.raises(ValueError, match="eigenvoice"):
            GeneratorConfig(dim=4, eigenvoice_dim=5)
        with pytest.raises(ValueError, match="^speaker_scale must be a finite number >= 0, got "):
            GeneratorConfig(dim=4, eigenvoice_dim=2, speaker_scale=-1.0)
        with pytest.raises(ValueError, match="domain_offset"):
            GeneratorConfig(dim=4, eigenvoice_dim=2, domain_offset=np.zeros(3))
        message = "^duration_ref_sec must be a finite number > 0, got 0.0$"
        with pytest.raises(ValueError, match=message):
            GeneratorConfig(dim=4, eigenvoice_dim=2, duration_ref_sec=0.0)

    def test_subspace_shared_across_seeds(self):
        a = GeneratorConfig(dim=6, eigenvoice_dim=3, n_speakers=2, seed=1, subspace_seed=42)
        b = GeneratorConfig(dim=6, eigenvoice_dim=3, n_speakers=2, seed=2, subspace_seed=42)
        assert np.array_equal(ground_truth_subspace(a), ground_truth_subspace(b))
        in_a = synth_domain(a, Domain.IN_DOMAIN)
        in_b = synth_domain(b, Domain.IN_DOMAIN)
        assert not np.array_equal(in_a.matrix(), in_b.matrix())

    @pytest.mark.parametrize("domain", [None, "in", (Domain.IN_DOMAIN,), 0])
    def test_a_domain_that_is_not_a_domain_fails_naming_it(self, domain):
        cfg = GeneratorConfig(dim=2, n_speakers=1, sessions_per_speaker=1, eigenvoice_dim=1)
        message = f"^domain must be a member of Domain, got {re.escape(repr(domain))}$"
        with pytest.raises(ValueError, match=message):
            synth_domain(cfg, domain)


def _noise(scale: float, ref: float, exponent: float = 0.5) -> GeneratorConfig:
    """A small generator config holding only a duration-noise law."""
    return GeneratorConfig(
        dim=3, eigenvoice_dim=1, duration_noise_scale=scale, duration_ref_sec=ref,
        duration_noise_exponent=exponent,
    )


class TestDurationNoise:
    def test_sigma_law_exact(self):
        m = _noise(0.5, 100.0)
        assert m.noise_sigma(100.0) == 0.5
        assert m.noise_sigma(25.0) == pytest.approx(1.0, abs=1e-15)
        # sigma(d) * sqrt(d) is constant for the default exponent
        for d in (10.0, 33.0, 100.0):
            assert m.noise_sigma(d) * np.sqrt(d) == pytest.approx(0.5 * 10.0, rel=1e-12)

    def test_configurable_exponent(self):
        m = _noise(0.5, 100.0, exponent=1.0)
        assert m.noise_sigma(25.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_scale_keeps_values_bit_identical(self):
        ds = make_dataset(np.arange(12.0).reshape(3, 4))
        out = apply_duration_noise(ds, 17.0, _noise(0.0, 100.0), seed=1)
        assert np.array_equal(out.matrix(), ds.matrix())
        assert (out.durations == 17.0).all()

    def test_noise_off_is_level_zero_at_every_duration(self):
        """With scale 0 the level is 0.0 even where the ratio to the
        reference overflows (0.0 * inf would be NaN, reported as overflow)."""
        for exponent in (0.5, 50.0, -1.0):
            m = _noise(0.0, 120.0, exponent=exponent)
            assert [m.noise_sigma(d) for d in (5e-324, 1e-10, 1.0, 1e300)] == [0.0] * 4
        ds = make_dataset(np.arange(6.0).reshape(2, 3))
        out = apply_duration_noise(ds, 5e-324, _noise(0.0, 120.0), seed=0)
        assert np.array_equal(out.matrix(), ds.matrix()) and (out.durations == 5e-324).all()

    def test_deterministic(self):
        ds = make_dataset(np.zeros((4, 3)))
        m = _noise(0.7, 60.0)
        a = apply_duration_noise(ds, 10.0, m, seed=5)
        b = apply_duration_noise(ds, 10.0, m, seed=5)
        assert a == b
        c = apply_duration_noise(ds, 10.0, m, seed=6)
        assert not np.array_equal(a.matrix(), c.matrix())

    def test_quarter_duration_doubles_std(self):
        # sample-std oracle over >= 1e5 draws, within 2%
        scale, ref = 0.5, 100.0
        ds = make_dataset(np.zeros((1000, 128)))
        out = apply_duration_noise(ds, ref / 4, _noise(scale, ref), seed=8)
        measured = out.matrix().std()
        assert measured == pytest.approx(2 * scale, rel=0.02)

    def test_rejects_nonpositive_duration(self):
        ds = make_dataset(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="^duration_sec must be a finite number > 0, got 0.0$"):
            apply_duration_noise(ds, 0.0, _noise(0.1, 60.0), seed=0)

    def test_rejects_infinite_duration(self):
        ds = make_dataset(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="^duration_sec must be a finite number > 0, got inf$"):
            apply_duration_noise(ds, float("inf"), _noise(0.1, 60.0), seed=0)

    def test_overflowing_noise_level_is_a_value_error(self):
        m = _noise(0.5, 120.0, exponent=50.0)
        message = "^duration noise overflows at duration 1e-10 s with exponent 50$"
        with pytest.raises(ValueError, match=message):
            m.noise_sigma(1e-10)
        with pytest.raises(ValueError, match=message):
            apply_duration_noise(make_dataset(np.zeros((2, 3))), 1e-10, m, seed=0)
        # a finite power times a huge scale overflows without an OverflowError
        with pytest.raises(ValueError, match="^duration noise overflows at duration 1e-10 s"):
            _noise(1e300, 120.0, exponent=1.0).noise_sigma(1e-10)
        # an infinite duration is not one, whatever the exponent
        with pytest.raises(ValueError, match="^duration_sec must be a finite number > 0, got inf$"):
            _noise(0.5, 120.0, exponent=-1.0).noise_sigma(float("inf"))
        # a negative exponent makes the level grow without bound as the duration does
        with pytest.raises(ValueError, match="^duration noise overflows at duration 1e\\+300 s"):
            _noise(0.5, 1e-300, exponent=-1.0).noise_sigma(1e300)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("duration_noise_scale", (float("nan"), 100.0)),
            ("duration_noise_scale", (-0.1, 100.0)),
            ("duration_ref_sec", (0.1, float("inf"))),
            ("duration_ref_sec", (0.1, 0.0)),
            ("duration_noise_exponent", (0.1, 100.0, float("inf"))),
            ("duration_noise_exponent", (0.1, 100.0, float("nan"))),
        ],
    )
    def test_rejects_bad_parameters(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            _noise(*args)


class TestIvectorIO:
    def _random_ds(self, rng, n=10, d=8):
        values = rng.standard_normal((n, d))
        speakers = [f"spk{i % 3}" if i % 4 else None for i in range(n)]
        domains = [Domain.OUT_DOMAIN if i % 2 else Domain.IN_DOMAIN for i in range(n)]
        ids = [f"utt{i}" for i in range(n)]
        return Dataset(values, ids, speakers, domains, [float(10 + i) for i in range(n)])

    def test_binary_round_trip_bit_exact(self, rng, tmp_path):
        ds = self._random_ds(rng)
        path = tmp_path / "x.ivec"
        save_ivectors(ds, path, "binary")
        assert load_ivectors(path, "binary") == ds

    def test_csv_round_trip(self, rng, tmp_path):
        ds = self._random_ds(rng)
        path = tmp_path / "x.csv"
        save_ivectors(ds, path, "csv")
        assert load_ivectors(path, "csv") == ds

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = make_dataset(np.empty((0, 500)))
        for fmt, name in (("binary", "x.ivec"), ("csv", "x.csv")):
            save_ivectors(ds, tmp_path / name, fmt)
            loaded = load_ivectors(tmp_path / name, fmt)
            assert len(loaded) == 0 and loaded.dim == 500

    def test_csv_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "id,speaker,domain,duration," + ",".join(f"v{i}" for i in range(3))
        path.write_text(header + "\na,s,in,10.0,1.0,2.0,3.0\nb,s,in,10.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_ivectors(path, "csv")

    def test_binary_trailing_bytes_rejected(self, rng, tmp_path):
        ds = self._random_ds(rng, n=2, d=3)
        path = tmp_path / "x.ivec"
        save_ivectors(ds, path, "binary")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_ivectors(path, "binary")

    def test_binary_truncation_names_record(self, rng, tmp_path):
        ds = self._random_ds(rng, n=3, d=4)
        path = tmp_path / "x.ivec"
        save_ivectors(ds, path, "binary")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(ValueError, match="record 2"):
            load_ivectors(path, "binary")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ivec"
        path.write_bytes(b"NOPE!" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_ivectors(path, "binary")


class TestTrialsIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("")
        assert load_trials(path) == make_trials([])

    def test_single_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1 target\n")
        assert load_trials(path) == make_trials([("e1", "t1", True)])

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1 target\ne2 t2 impostor\n")
        with pytest.raises(ValueError, match="line 2.*impostor"):
            load_trials(path)

    def test_round_trip(self, tmp_path):
        trials = make_trials([("a", "b", True), ("a", "c", False)])
        path = tmp_path / "t.txt"
        save_trials(trials, path)
        assert load_trials(path) == trials

    @pytest.mark.parametrize("bad", ["a b", "", "a\tb", "a\u2003b"])
    def test_save_rejects_ids_that_do_not_read_back(self, tmp_path, bad):
        trials = make_trials([("e", "t", True), ("e", bad, False)])
        with pytest.raises(ValueError, match=re.escape(f"trial 1 '{trials.trial_text(1)}'")):
            save_trials(trials, tmp_path / "t.txt")
        assert not (tmp_path / "t.txt").exists()

    def test_columns_follow_first_appearance(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("b x target\n\na y nontarget\nb y nontarget\n")
        trials = load_trials(path)
        assert isinstance(trials, TrialList)
        assert trials.enrol_ids == ("b", "a") and trials.test_ids == ("x", "y")
        assert trials.enrol_code.tolist() == [0, 1, 0]
        assert trials.test_code.tolist() == [0, 1, 1]
        assert trials.is_target.tolist() == [True, False, False]
        assert trials.trial_text(2) == "b y nontarget"
        out = tmp_path / "out.txt"
        save_trials(trials, out)
        assert out.read_text() == "b x target\na y nontarget\nb y nontarget\n"

    def test_trial_list_validates_columns(self):
        with pytest.raises(ValueError, match="equal length"):
            TrialList(["a"], ["b"], [0, 0], [0], [True])
        with pytest.raises(ValueError, match="test code out of range"):
            TrialList(["a"], ["b"], [0], [1], [True])
        assert TrialList(["a"], ["b"], [0], [0], [True]) != make_trials([("a", "b", False)])
        with pytest.raises(ValueError, match="repeated id in the enrol id table"):
            TrialList(["a", "a"], ["b"], [0, 1], [0, 0], [True, False])
        # codes are integers: a float or bool code is not truncated to one
        with pytest.raises(ValueError, match="enrol_code must be integers, got float64"):
            TrialList(["a", "b"], ["c"], [0.7, 1.9], [0, 0], [2, 0])
        for bad in ([True], np.array([1], dtype=object)):
            with pytest.raises(ValueError, match="test_code must be integers"):
                TrialList(["a"], ["b", "c"], [0], bad, [True])
        assert len(TrialList([], [], [], [], [])) == 0
        # ids are str: nothing fails later in a writer or is written as another type
        with pytest.raises(ValueError, match="enrol id table: entry 0 is 1, not a str"):
            TrialList([1], ["b"], [0], [0], [True])
        with pytest.raises(ValueError, match=r"test id table: entry 1 is \['c'\], not a str"):
            TrialList(["a"], ["b", ["c"]], [0], [1], [True])
        # labels are booleans: a label text or a number is not truth-cast to one
        for bad, dtype in ((["nontarget"], "<U9"), ([0.3], "float64"), ([0], "int64")):
            with pytest.raises(ValueError, match=f"is_target must be booleans, got {dtype}"):
                TrialList(["a"], ["b"], [0], [0], bad)


_TOKENS = st.one_of(st.text("abx-", min_size=1, max_size=3), st.text("ab\u00e9", min_size=1))
_SPACES = st.sampled_from([" ", " ", " ", "  ", "\t", " \t ", "\u2003"])


@st.composite
def trial_files(draw) -> str:
    """Trial-list text mixing single spaces with tabs, runs of spaces, other
    whitespace, blank lines, padded lines, CRLF, lone CR and non-ASCII ids."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  "])))
            continue
        label = draw(st.sampled_from(["target", "nontarget"]))
        e, t = draw(_TOKENS), draw(_TOKENS)
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        lines.append(f"{pad}{e}{draw(_SPACES)}{t}{draw(_SPACES)}{label}{pad}")
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no newline after the last line
    return "".join(line + end for line, end in zip(lines, ends))


class TestTrialBlocks:
    """``load_trials`` splits plain blocks at once and every other block line
    by line; with tiny blocks both kinds meet at every boundary."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=trial_files(), block=st.integers(1, 60))
    def test_matches_one_split_per_line(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(dataset, "_READ_BLOCK", block)
        path = tmp_path / "trials.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = make_trials(trial_rows(path))
        trials = load_trials(path)
        assert trials == expected
        assert (trials.enrol_ids, trials.test_ids) == (expected.enrol_ids, expected.test_ids)

    def test_token_counts_that_cancel_out_are_caught(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("e1 t1 target x\ne2 t2\n")
        with pytest.raises(ValueError, match="line 1: expected 'enrol test target|nontarget'"):
            load_trials(path)

    @pytest.mark.parametrize("chars", [1, 7, 1 << 20])
    @pytest.mark.parametrize(
        "text",
        [
            b"e1 t1 target\re2 t2 nontarget\r\re3 t3 target\r",
            b"e1 t1 target\r\ne2 t2 nontarget\re3 t3 target\n\r\n",
            b"\re1 t1 target\re2\tt2 nontarget\r\ne3 t3 target",
        ],
        ids=["cr", "mixed", "mixed-no-final-end"],
    )
    def test_lone_carriage_returns_end_lines(self, tmp_path, monkeypatch, chars, text):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "trials.txt"
        path.write_bytes(text)
        expected = make_trials([("e1", "t1", True), ("e2", "t2", False), ("e3", "t3", True)])
        assert make_trials(trial_rows(path)) == expected
        assert load_trials(path) == expected

    @pytest.mark.parametrize("chars", [1, 7, 1 << 20])
    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"])
    def test_malformed_line_after_carriage_returns_names_its_line(
        self, tmp_path, monkeypatch, chars, end
    ):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "trials.txt"
        path.write_bytes(b"e1 t1 target\r\re2 t2 nontarget\r\ne3 t3" + end + b"e4 t4 target" + end)
        with pytest.raises(ValueError) as err:
            load_trials(path)
        assert str(err.value) == f"{path}: line 4: expected 'enrol test target|nontarget'"

    @pytest.mark.parametrize("chars", [1, 7, 1 << 20])
    def test_crlf_blocks_are_split_at_once(self, tmp_path, monkeypatch, chars):
        def line_by_line(*args):
            raise AssertionError("a CRLF block went line by line")

        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        monkeypatch.setattr(dataset, "_trial_tokens", line_by_line)
        path = tmp_path / "trials.txt"
        path.write_bytes(b"e1 t1 target\r\ne2 t2 nontarget\r\ne1 t2 nontarget")
        expected = make_trials([("e1", "t1", True), ("e2", "t2", False), ("e1", "t2", False)])
        assert load_trials(path) == expected

    @pytest.mark.parametrize(
        "bad",
        ["e9 t9", "e9 t9 target x", "e9 t9 impostor", "e9\tt9  impostor", "e9 t9 Target",
         "e9 t9\u2003x target", "e9 t\u00e9 impostor"],
    )
    @pytest.mark.parametrize("chars", [1, 20, 1 << 20])
    def test_malformed_line_in_a_later_block_names_its_line(
        self, tmp_path, monkeypatch, chars, bad
    ):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "trials.txt"
        path.write_text(
            "e1 t1 target\n\ne2\tt2 nontarget\ne3 t3 target\ne4 t4 nontarget\n"
            f"{bad}\ne5 t5 target\n"
        )
        with pytest.raises(ValueError) as expected:
            trial_rows(path)
        assert "line 6:" in str(expected.value)
        with pytest.raises(ValueError) as err:
            load_trials(path)
        assert str(err.value) == str(expected.value)


class TestColumnarDataset:
    def _ds(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 3))
        speakers = ["b", None, "a", "b", "c"]
        domains = [Domain.OUT_DOMAIN if i % 2 else Domain.IN_DOMAIN for i in range(5)]
        ids = [f"u{i}" for i in range(5)]
        return Dataset(values, ids, speakers, domains, [float(5 + i) for i in range(5)])

    def test_items_round_trip_and_columns(self):
        ds = self._ds()
        assert ds.ids == ("u0", "u1", "u2", "u3", "u4")
        assert ds.speakers == ("a", "b", "c")
        assert ds.speaker_code.tolist() == [1, -1, 0, 1, 2]
        assert ds.row_speakers() == ["b", None, "a", "b", "c"]
        assert ds.durations.tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]
        columns = Dataset(ds.matrix(), ds.ids, ds.row_speakers(), ds.domains, ds.durations)
        assert columns == ds

    def test_matrix_is_stored_read_only_array(self):
        ds = make_dataset(np.arange(6.0).reshape(3, 2))
        assert ds.matrix() is ds.matrix()
        with pytest.raises(ValueError):
            ds.matrix()[0, 0] = 1.0
        assert not ds.speaker_code.flags.writeable and not ds.durations.flags.writeable

    def test_with_values_rejects_nan_by_id_and_shares_metadata(self):
        ds = make_dataset(np.zeros((3, 2)), speakers=["s", None, "t"], duration=30.0)
        bad = np.ones((3, 4))
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="ivector 'utt0002': values contain non-finite"):
            ds.with_values(bad)
        with pytest.raises(ValueError, match=r"expected a \(3, dim\) matrix"):
            ds.with_values(np.ones((2, 4)))
        new = np.ones((3, 4))
        out = ds.with_values(new)
        new[0, 0] = 7.0  # the dataset holds a copy
        assert out.dim == 4 and out.matrix()[0, 0] == 1.0
        assert out.ids is ds.ids and out.speaker_code is ds.speaker_code
        assert out.durations is ds.durations and out.row_speakers() == ["s", None, "t"]

    def test_from_columns_validates_once(self):
        values = np.zeros((2, 2))
        dom = [Domain.IN_DOMAIN] * 2
        with pytest.raises(ValueError, match="duplicate utterance id 'a'"):
            Dataset(values, ["a", "a"], [None, None], dom, [1.0, 1.0])
        with pytest.raises(ValueError, match="ivector 'b': duration_sec must be positive"):
            Dataset(values, ["a", "b"], [None, None], dom, [1.0, np.nan])
        with pytest.raises(ValueError, match="one entry per row"):
            Dataset(values, ["a"], [None], dom[:1], [1.0])
        # ids and speaker labels are str, domains Domain: nothing fails later in a writer
        for ids, speakers, domains, message in (
            (["a", 7], [None, None], dom, "dataset ids: entry 1 is 7, not a str"),
            (["a", "b"], ["s", 5], dom, "dataset speakers: entry 1 is 5, not a str or None"),
            (["a", "b"], [None, None], [Domain.IN_DOMAIN, "in"],
             "dataset domains: entry 1 is 'in', not a Domain"),
        ):
            with pytest.raises(ValueError, match=message):
                Dataset(values, ids, speakers, domains, [1.0, 1.0])
        with pytest.raises(ValueError, match="dataset domains: entry 0 is 'in', not a Domain"):
            Dataset(np.ones((1, 2)), ["a"], ["s"], ["in"], [1.0])

    def test_constructor_rejects_nonfinite_values_and_nonpositive_durations(self):
        dom = [Domain.IN_DOMAIN] * 2
        bad = np.array([[1.0, 2.0], [1.0, np.nan]])
        with pytest.raises(ValueError, match="ivector 'b': values contain non-finite"):
            Dataset(bad, ["a", "b"], [None, None], dom, [1.0, 1.0])
        for duration in (0.0, -1.0):
            with pytest.raises(ValueError, match="ivector 'a': duration_sec must be positive"):
                Dataset(np.ones((2, 2)), ["a", "b"], [None, None], dom, [duration, 1.0])
        values = np.ones((2, 2))
        ds = Dataset(values, ["a", "b"], [None, None], dom, [1.0, 1.0])
        values[0, 0] = 7.0  # the dataset holds a copy
        assert ds.matrix()[0, 0] == 1.0

    def test_constructor_rejects_infinite_duration_by_row(self):
        dom = [Domain.IN_DOMAIN] * 2
        with pytest.raises(ValueError, match="^ivector 'b': duration_sec must be positive and"):
            Dataset(np.ones((2, 2)), ["a", "b"], [None, None], dom, [1.0, float("inf")])

    def test_subset_recodes_speakers(self):
        ds = self._ds()
        sub = ds.subset([4, 1, 0])
        assert sub.ids == ("u4", "u1", "u0")
        assert sub.speakers == ("b", "c") and sub.speaker_code.tolist() == [1, -1, 0]
        assert np.array_equal(sub.matrix(), ds.matrix()[[4, 1, 0]])
        assert not sub.speaker_code.flags.writeable
        with pytest.raises(ValueError, match="duplicate utterance id 'u1'"):
            ds.subset([1, 1])
        for bad in ([-1], [0, 5]):
            with pytest.raises(ValueError, match=rf"position {bad[-1]} is outside \[0, 5\)"):
                ds.subset(bad)
        for bad, dtype in (([1.7], "float64"), ([True, False], "bool"), (["1"], "<U1")):
            with pytest.raises(ValueError, match=f"subset positions must be integers, got {dtype}"):
                ds.subset(bad)
        with pytest.raises(ValueError, match="got object"):
            ds.subset(np.array([1, 0], dtype=object))
        assert ds.subset(np.arange(0)).speakers == () and len(ds.subset([])) == 0
        assert ds.subset(np.array([3, 1], dtype=np.uint8)).ids == ("u3", "u1")
        # slicing and recoding equal a rebuild through the validating constructor
        speakers = ds.row_speakers()
        for pos in ([1, 3], [2, 0, 4, 3], [3, 0]):
            rebuilt = Dataset(
                ds.matrix()[pos], [ds.ids[p] for p in pos], [speakers[p] for p in pos],
                [ds.domains[p] for p in pos], ds.durations[pos],
            )
            sub = ds.subset(pos)
            assert sub == rebuilt and sub.speakers == rebuilt.speakers
            assert sub.speaker_code.tolist() == rebuilt.speaker_code.tolist()

    def test_empty_speaker_label_rejected_by_id(self, tmp_path):
        dom = [Domain.IN_DOMAIN] * 2
        with pytest.raises(ValueError, match="ivector 'b': speaker label must be non-empty"):
            Dataset(np.ones((2, 2)), ["a", "b"], ["s", ""], dom, [1.0, 1.0])
        # both file formats store an empty speaker field as unlabeled
        ds = Dataset(np.ones((2, 2)), ["a", "b"], ["s", None], dom, [1.0, 1.0])
        for fmt in ("binary", "csv"):
            save_ivectors(ds, tmp_path / "x", fmt)
            back = load_ivectors(tmp_path / "x", fmt)
            assert back == ds and back.row_speakers() == ["s", None]


_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6
)


class TestColumnarFilesMatchPerRowWriters:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        ids=st.lists(_TEXT, min_size=0, max_size=6, unique=True),
        labels=st.lists(st.one_of(st.none(), _TEXT.filter(bool)), min_size=6, max_size=6),
        dim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_per_row_writer(self, tmp_path, ids, labels, dim, seed):
        rng = np.random.default_rng(seed)
        n = len(ids)
        values = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
        domains = [Domain.OUT_DOMAIN if b else Domain.IN_DOMAIN for b in rng.integers(0, 2, n)]
        ds = Dataset(values, ids, labels[:n], domains, rng.uniform(0.1, 200.0, n))
        save_ivectors(ds, tmp_path / "x.ivec", "binary")
        assert (tmp_path / "x.ivec").read_bytes() == ivec_bytes_per_row(ds)
        save_ivectors(ds, tmp_path / "x.csv", "csv")
        assert (tmp_path / "x.csv").read_bytes() == ivec_csv_per_row(ds, tmp_path / "o.csv")

    def test_synth_bit_identical_to_per_vector_draws(self):
        cfg = GeneratorConfig(
            dim=7, n_speakers=5, sessions_per_speaker=3, eigenvoice_dim=2,
            domain_offset=np.linspace(-1.0, 1.0, 7), out_channel_scale=1.7, seed=13,
        )
        in_ds, out_ds = (synth_domain(cfg, d) for d in Domain)
        u = ground_truth_subspace(cfg)
        in_rng, out_rng = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
        expected_in = synth_matrix(cfg, u, np.zeros(cfg.dim), cfg.channel_scale, in_rng)
        expected_out = synth_matrix(cfg, u, cfg.domain_offset, 1.7, out_rng)
        assert np.array_equal(in_ds.matrix(), expected_in)
        assert np.array_equal(out_ds.matrix(), expected_out)
        assert in_ds.ids[:4] == ("in-s0000-u00", "in-s0000-u01", "in-s0000-u02", "in-s0001-u00")
        assert out_ds.row_speakers()[3] == "out-s0001"
        assert set(out_ds.domains) == {Domain.OUT_DOMAIN}
        assert (in_ds.durations == cfg.duration_ref_sec).all()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: _noise(1.0, 120.0).noise_sigma(0),
         "duration_sec must be a finite number > 0, got 0"),
        (lambda tmp: GeneratorConfig(dim=2, eigenvoice_dim=1, out_channel_scale=-1.0),
         "out_channel_scale must be a finite number >= 0, got -1.0"),
        (lambda tmp: GeneratorConfig(dim=2, eigenvoice_dim=1, domain_offset=[0.0, np.inf]),
         "domain_offset must be a finite number, got inf"),
        (lambda tmp: save_ivectors(make_dataset(np.zeros((1, 2))), tmp / "x", "xml"),
         "unknown i-vector format 'xml'"),
        (lambda tmp: load_ivectors(tmp / "x", "xml"), "unknown i-vector format 'xml'"),
    ],
    ids=["sigma-at-0", "out-channel-scale", "offset-inf", "save-format", "load-format"],
)
def test_error_paths_name_the_field(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
