import copy
import csv
import json
from dataclasses import astuple, replace
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simfd.cli as cli
import simfd.emnn as emnn
import simfd.evaluation as ev
import simfd.training as training
from simfd.channel import ChannelSource, derive_seed
from simfd.config import (ChannelConfig, ConfigError, config_from_dict,
                          miniature_config, reference_config, save_config)


@pytest.fixture(scope="module")
def quick_config():
    cfg = miniature_config(seed=21)
    return replace(
        cfg,
        training=replace(cfg.training, epochs=40, restarts=1, batch_size=64,
                         finetune_epochs=5),
        evaluation=replace(cfg.evaluation, monte_carlo=2, test_scale=600,
                           power_sweep_dbm=(20.0, 30.0), eval_batch=256),
    )


@pytest.fixture(scope="module")
def quick_base(quick_config):
    return training.train_base(quick_config)


class TestBer:
    def test_equal_vectors(self):
        assert ev.ber(np.ones(10), np.ones(10)) == (0, 10, 0.0)

    def test_all_flipped(self):
        assert ev.ber(np.ones(8), np.zeros(8)) == (8, 8, 1.0)

    def test_direct_count(self):
        b = np.zeros(20)
        d = b.copy()
        d[[3, 7, 11]] = 1
        errors, total, ratio = ev.ber(b, d)
        assert (errors, total) == (3, 20)
        assert ratio == 0.15

    def test_integer_exactness(self):
        rng = np.random.default_rng(0)
        b = rng.integers(0, 2, (50, 8))
        d = rng.integers(0, 2, (50, 8))
        errors, total, ratio = ev.ber(b, d)
        assert isinstance(errors, int) and isinstance(total, int)
        assert ratio == errors / total

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ev.ber(np.ones(3), np.ones(4))


class TestEvaluate:
    def test_untrained_model_is_chance_level(self, quick_config):
        model = emnn.Emnn(quick_config, rng=np.random.default_rng(3))
        real = ChannelSource(quick_config).instantaneous(1)
        _, _, ratio = ev.evaluate(model, real, 30.0, 10000,
                                  np.random.default_rng(4))
        assert abs(ratio - 0.5) < 0.05

    def test_seed_determinism(self, quick_base, quick_config):
        model = emnn.Emnn(quick_config, params=quick_base.params)
        real = ChannelSource(quick_config).instantaneous(1)
        a = ev.evaluate(model, real, 20.0, 500, np.random.default_rng(5))
        b = ev.evaluate(model, real, 20.0, 500, np.random.default_rng(5))
        assert a == b

    def test_counts_cover_test_scale(self, quick_base, quick_config):
        model = emnn.Emnn(quick_config, params=quick_base.params)
        real = ChannelSource(quick_config).instantaneous(1)
        errors, bits, _ = ev.evaluate(model, real, 20.0, 777,
                                      np.random.default_rng(6))
        assert bits == 777 * quick_config.total_bits

    def test_no_grad_counts_match_grad_mode_forward(self, quick_base, quick_config,
                                                    monkeypatch):
        model = emnn.Emnn(quick_config, params=quick_base.params)
        real = ChannelSource(quick_config).instantaneous(1)
        decided = emnn.hard_decision
        recorded = []

        def spy(soft):
            recorded.append(soft.requires_grad or soft._parents != ())
            return decided(soft)

        monkeypatch.setattr(emnn, "hard_decision", spy)
        got = ev.evaluate(model, real, 20.0, 500, np.random.default_rng(9),
                          batch_size=256)
        monkeypatch.undo()
        assert recorded == [False, False]  # evaluate's forwards record no graph
        rng = np.random.default_rng(9)
        errors = counted = 0
        for n in (256, 244):
            bits = rng.integers(0, 2, (n, quick_config.total_bits)).astype(float)
            soft = model.forward(bits, np.full(n, 20.0), real, rng=rng,
                                 training=False)
            assert soft.requires_grad  # a graph-recording forward
            e, t, _ = ev.ber(bits, emnn.hard_decision(soft))
            errors += e
            counted += t
        assert got == (errors, counted, errors / counted)

    def test_lone_leftover_symbol_is_folded_not_padded(self):
        cfg = miniature_config()
        model = emnn.Emnn(cfg, rng=np.random.default_rng(7))
        real = ChannelSource(cfg).instantaneous(1)
        _, bits, _ = ev.evaluate(model, real, 30.0, 2049,
                                 np.random.default_rng(8), batch_size=2048)
        assert bits == 2049 * cfg.total_bits

    def test_rejects_single_symbol_batches(self, quick_config):
        model = emnn.Emnn(quick_config, rng=np.random.default_rng(3))
        real = ChannelSource(quick_config).instantaneous(1)
        with pytest.raises(ValueError):
            ev.evaluate(model, real, 30.0, 1, np.random.default_rng(4))

    def test_config_rejects_test_scale_below_two(self, quick_config):
        with pytest.raises(ConfigError):
            replace(quick_config, evaluation=replace(
                quick_config.evaluation, test_scale=1))


class TestMonteCarlo:
    def test_row_counts_and_aggregates(self, quick_base, quick_config):
        report = ev.monte_carlo_eval(quick_base)
        evc = quick_config.evaluation
        assert len(report.rows) == evc.monte_carlo * len(evc.power_sweep_dbm)
        aggs = report.aggregates()
        assert len(aggs) == len(evc.power_sweep_dbm)
        for agg in aggs:
            rows = [r.ber for r in report.rows
                    if r.power_dbm == agg["power_dbm"]]
            assert agg["mean_ber"] == pytest.approx(np.mean(rows))
            assert agg["median_ber"] == pytest.approx(np.median(rows))

    def test_single_realization_degenerates_to_finetune_evaluate(
            self, quick_base, quick_config):
        cfg = replace(quick_config,
                      evaluation=replace(quick_config.evaluation,
                                         monte_carlo=1))
        report = ev.monte_carlo_eval(replace(quick_base, config=cfg))
        assert len(report.rows) == len(cfg.evaluation.power_sweep_dbm)

    def test_rows_carry_reproducing_seed(self, quick_base):
        report = ev.monte_carlo_eval(quick_base)
        row = report.rows[0]
        again = ev.rerun_row(quick_base, row)
        assert again.errors == row.errors
        assert again.bits == row.bits
        assert again.ber == row.ber

    def test_diverged_rows_replay_as_nan(self):
        # at 1e200 the loss overflows; at 1e10 a gradient does first
        for finetune_lr in (1e200, 1e10):
            cfg = miniature_config()
            cfg = replace(
                cfg,
                training=replace(cfg.training, epochs=20, restarts=1,
                                 finetune_epochs=30, finetune_lr=finetune_lr),
                evaluation=replace(cfg.evaluation, monte_carlo=2, test_scale=200),
            )
            rows = ev.protocol([cfg]).rows
            assert rows and all(np.isnan(r.ber) for r in rows)
            base = training.train_base(cfg)
            for row in rows:
                again = ev.rerun_row(base, row)
                assert all(a == b or a != a and b != b
                           for a, b in zip(astuple(again), astuple(row)))


class TestProtocol:
    def test_arm_over_training_seeds_is_one_report(self, quick_config):
        configs = [replace(quick_config, training=replace(quick_config.training, seed=s))
                   for s in (1, 2)]
        report = ev.protocol(configs)
        rows = [r for c in configs
                for r in ev.monte_carlo_eval(training.train_base(c)).rows]
        assert report.rows == sorted(
            rows, key=lambda r: (r.label, r.power_dbm, r.realization))
        assert {r.label for r in report.rows} == {quick_config.label}
        for p in quick_config.evaluation.power_sweep_dbm:
            assert report.median_ber(quick_config.label, p) == np.median(
                [r.ber for r in rows if r.power_dbm == p])

    def test_report_orders_its_rows_once_built(self):
        rows = [ev.BerRow(label, power, realization, 0, 8, 1, 0.125)
                for realization in (1, 0) for power in (30.0, 20.0)
                for label in ("b", "a")]
        ordered = ev.BerReport(rows).rows
        assert [(r.label, r.power_dbm, r.realization) for r in ordered] == sorted(
            (r.label, r.power_dbm, r.realization) for r in rows)


class TestReportFormats:
    def test_csv_header_and_rows(self, quick_base, tmp_path):
        report = ev.monte_carlo_eval(quick_base)
        path = tmp_path / "rows.csv"
        report.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "power_dbm", "realization", "seed",
                           "bits", "errors", "ber"]
        assert len(rows) - 1 == len(report.rows)
        for row in rows[1:]:
            assert int(row[5]) <= int(row[4])

    def test_json_summary(self, quick_base, quick_config, tmp_path):
        report = ev.monte_carlo_eval(quick_base)
        path = tmp_path / "summary.json"
        report.to_json(path, quick_config)
        doc = json.loads(path.read_text())
        assert doc["config_digest"] == quick_config.digest()
        assert doc["rows"] == len(report.rows)


class TestBaselineConventional:
    def test_layers_removed(self, quick_config):
        base = ev.baseline_conventional(quick_config)
        for t in base.geometry.terminals:
            assert t.tx_layers == 0 and t.rx_layers == 0

    def test_channel_shapes_are_antenna_sized(self, quick_config):
        base = ev.baseline_conventional(quick_config)
        real = ChannelSource(base).instantaneous(0)
        # A_2^rx x A_1^tx for the link 1 -> 2
        assert real.link(1, 2).shape == (4, 4)

    def test_no_phase_parameters(self, quick_config):
        base = ev.baseline_conventional(quick_config)
        params = emnn.init_params(base, np.random.default_rng(0))
        names = params.named_tensors()
        assert not any(".theta" in n or ".xi" in n for n in names)

    def test_dnn_heads_shared_with_sim_config(self, quick_config):
        sim_names = {name for name, *_ in emnn.param_table(quick_config)}
        base = ev.baseline_conventional(quick_config)
        base_names = {name for name, *_ in emnn.param_table(base)}
        phase = {n for n in sim_names if ".theta" in n or ".xi" in n}
        assert sim_names - phase == base_names

    def test_config_diff_touches_only_stack_sections(self, quick_config):
        a = quick_config.to_dict()
        b = ev.baseline_conventional(quick_config).to_dict()
        assert a["channel"] == b["channel"]
        assert a["training"] == b["training"]
        assert a["evaluation"] == b["evaluation"]
        assert a["system"]["bits"] == b["system"]["bits"]
        for ta, tb in zip(a["sim"]["terminals"], b["sim"]["terminals"]):
            diff = {k for k in ta if ta[k] != tb[k]}
            assert diff == {"tx_layers", "rx_layers"}

    def test_trains_and_evaluates(self, quick_config):
        base_cfg = ev.baseline_conventional(quick_config)
        report = ev.protocol([base_cfg])
        assert len(report.rows) > 0


class TestSweep:
    def test_layers_sweep_produces_labelled_curves(self, quick_config):
        cfg = replace(quick_config,
                      training=replace(quick_config.training, epochs=10),
                      evaluation=replace(quick_config.evaluation, monte_carlo=1,
                                         test_scale=200))
        report = ev.protocol(ev.sweep_configs("layers", [1, 2], cfg))
        labels = {r.label for r in report.rows}
        assert len(labels) == 2
        assert len(report.rows) == 2 * len(cfg.evaluation.power_sweep_dbm)

    def test_bits_sweep_changes_only_heads(self, quick_config):
        configs = ev.sweep_configs("bits", [(4, 4), (2, 2)], quick_config)
        assert configs[0].geometry == configs[1].geometry
        assert configs[1].n_bits == (2, 2)

    def test_units_sweep_follows_width_rules(self, quick_config):
        configs = ev.sweep_configs("units", [(4, 4), (6, 6)], quick_config)
        shapes = [dict((name, shape) for name, shape, *_ in emnn.param_table(c))
                  for c in configs]
        assert shapes[0]["t1.theta1"] == (16,)
        assert shapes[1]["t1.theta1"] == (36,)

    def test_unknown_kind(self, quick_config):
        with pytest.raises(ValueError):
            ev.sweep_configs("nonsense", [1], quick_config)


class TestCli:
    def test_missing_config_file_is_usage_error(self, capsys):
        code = cli.main(["train-base", "--config", "/nonexistent/config.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["train-base", "--config", str(bad)]) == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"label": "\xff"}')
        assert cli.main(["train-base", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config-dir", "checkpoint-dir", "out-file"])
    def test_os_error_is_usage_error(self, tmp_path, capsys, case):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {"config-dir": ["train-base", "--config", str(tmp_path)],
                "checkpoint-dir": ["evaluate", "--checkpoint", str(tmp_path)],
                "out-file": ["physics-dump", "--config", "mini",
                             "--out", str(taken)]}[case]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_link_gain_is_runtime_error(self, tmp_path, capsys):
        cfg = miniature_config()
        cfg_path = tmp_path / "loud.json"
        save_config(replace(cfg, channel=replace(cfg.channel, shadowing_db=1e4)), cfg_path)
        assert cli.main(["train-base", "--config", str(cfg_path),
                         "--out", str(tmp_path / "run")]) == 1
        assert "non-finite entries" in capsys.readouterr().err

    def test_gradcheck_mini_passes(self, capsys):
        code = cli.main(["gradcheck", "--config", "mini"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_relative_error" in out

    def test_train_finetune_evaluate_roundtrip(self, quick_config, tmp_path,
                                               capsys):
        cfg_path = tmp_path / "quick.json"
        save_config(quick_config, cfg_path)
        out = tmp_path / "run"
        assert cli.main(["train-base", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert (out / "base.ckpt").exists()
        assert (out / "base.phases.txt").exists()
        assert cli.main(["finetune", "--checkpoint", str(out / "base.ckpt"),
                         "--out", str(out)]) == 0
        assert cli.main(["evaluate", "--checkpoint", str(out / "finetune.ckpt"),
                         "--power", "30", "--out", str(out)]) == 0
        assert (out / "evaluate.csv").exists()
        assert (out / "evaluate.json").exists()

    def test_evaluate_config_override_sets_the_eval_batch(self, quick_base,
                                                          quick_config, tmp_path):
        # power control normalizes over the batch, so the count depends on
        # it; the override's batch, not the checkpoint's, must be used
        training.save_checkpoint(quick_base, tmp_path / "base.ckpt")
        override = replace(quick_config, evaluation=replace(quick_config.evaluation,
                                                            eval_batch=64))
        save_config(override, tmp_path / "override.json")
        out = tmp_path / "run"
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / "base.ckpt"),
                         "--config", str(tmp_path / "override.json"),
                         "--power", "30", "--out", str(out)]) == 0
        with open(out / "evaluate.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)

        def direct(batch_size):
            seed = derive_seed(quick_config.evaluation.seed, 0)
            model = emnn.Emnn(quick_config, params=quick_base.params)
            return ev.evaluate(model, ChannelSource(quick_config).instantaneous(seed),
                               30.0, quick_config.evaluation.test_scale,
                               np.random.default_rng(seed), batch_size=batch_size)[0]
        assert direct(64) != direct(quick_config.evaluation.eval_batch)
        assert int(row["errors"]) == direct(64)

    def test_evaluate_with_mismatched_checkpoint_fails_with_shape_error(
            self, quick_config, tmp_path, capsys):
        cfg_path = tmp_path / "quick.json"
        save_config(quick_config, cfg_path)
        out = tmp_path / "run2"
        assert cli.main(["train-base", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        from simfd.config import with_unit_grid
        other = with_unit_grid(quick_config, (3, 3))
        other_path = tmp_path / "other.json"
        save_config(other, other_path)
        code = cli.main(["evaluate", "--checkpoint", str(out / "base.ckpt"),
                         "--config", str(other_path), "--power", "30",
                         "--out", str(out)])
        assert code == 1
        assert "shape" in capsys.readouterr().err

    def test_physics_dump_writes_matrix_csvs(self, quick_config, tmp_path):
        cfg_path = tmp_path / "quick.json"
        save_config(quick_config, cfg_path)
        out = tmp_path / "dump"
        assert cli.main(["physics-dump", "--config", str(cfg_path),
                         "--out", str(out), "--realization-seed", "7"]) == 0
        dump = (out / "t1_tx_operator.csv").read_text().splitlines()
        assert dump[0] == "row,col,re,im"
        # 16x4 operator for the miniature TX side
        assert len(dump) - 1 == 16 * 4
        assert (out / "t1_corr_rx.csv").exists()
        # the audited realization reproduces from its recorded seed
        links = (out / "g12.csv").read_text().splitlines()
        assert len(links) - 1 == 16 * 16
        want = ChannelSource(quick_config).instantaneous(7).link(1, 2)
        row, col, re, im = links[1].split(",")
        assert complex(float(re), float(im)) == want[int(row), int(col)]

    def test_physics_dump_rejects_phases_of_another_depth(self, quick_config,
                                                         tmp_path, capsys):
        # phases of one layer, or of a 3x3 unit grid, do not fit mini's
        # two-layer 4x4 stacks
        from simfd.config import with_layers, with_unit_grid
        for other, have in ((with_layers(quick_config, 1), "(1, 16)"),
                            (with_unit_grid(quick_config, (3, 3)), "(2, 9)")):
            ck = training.train_base(replace(other, training=replace(
                other.training, epochs=2)))
            path = tmp_path / "other.ckpt"
            training.save_checkpoint(ck, path)
            code = cli.main(["physics-dump", "--config", "mini", "--checkpoint",
                             str(path), "--out", str(tmp_path / "dump")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert str(path) in err and "terminal 1" in err
            assert f"tx {have}" in err and "tx (2, 16)" in err

    def test_sweep_smoke(self, quick_config, tmp_path):
        cfg = replace(quick_config,
                      training=replace(quick_config.training, epochs=6),
                      evaluation=replace(quick_config.evaluation, monte_carlo=1,
                                         test_scale=120))
        cfg_path = tmp_path / "tiny.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg_path), "--kind", "bits",
                         "--grid", "4+4,2+2", "--out", str(out)]) == 0
        assert (out / "sweep_bits.csv").exists()

    @pytest.mark.parametrize("kind, grid", [
        ("layers", "x"), ("units", "4x"), ("layers", ""), ("units", " , "),
        ("bits", ""), ("power", "10,20"), ("layers", "1,1"), ("layers", "1,01"),
        ("bits", "4+4,04+4"), ("bits", "4")])
    def test_bad_sweep_grid_is_usage_error(self, quick_config, tmp_path, capsys,
                                           kind, grid):
        cfg_path = tmp_path / "quick.json"
        save_config(quick_config, cfg_path)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg_path), "--kind", kind,
                         "--grid", grid, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_three_axis_unit_grid_names_the_axis_count(self, quick_config, tmp_path,
                                                       capsys):
        cfg_path = tmp_path / "quick.json"
        save_config(quick_config, cfg_path)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg_path), "--kind", "units",
                         "--grid", "4x4x4", "--out", str(out)]) == 2
        assert "error: a grid has two axes (nx, ny), got (4, 4, 4)" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_usage(self):
        assert cli.main([]) == 2


VALID_DOC = miniature_config().to_dict()


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


DOC_PATHS = list(_paths(VALID_DOC))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["7", "-2", "0.5", "nan", "1e400", "true"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    """A valid config document with one value replaced, one key or list
    entry deleted, or one key added."""
    doc = copy.deepcopy(VALID_DOC)
    kind = draw(st.sampled_from(["replace", "delete", "add"]))
    if kind == "add":
        path = draw(st.sampled_from([p for p in DOC_PATHS
                                     if isinstance(reduce(getitem, p, doc), dict)]))
        reduce(getitem, path, doc)[draw(st.text())] = draw(JSON_VALUES)
        return doc
    path = draw(st.sampled_from(DOC_PATHS[1:]))
    parent = reduce(getitem, path[:-1], doc)
    if kind == "replace":
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        del parent[path[-1]]
    return doc


class TestConfigFile:
    def test_roundtrip(self, quick_config, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(quick_config, path)
        from simfd.config import load_config
        loaded = load_config(path)
        assert loaded.digest() == quick_config.digest()

    @pytest.mark.parametrize("section, key, value", [
        ("training", "epochs", "abc"), ("system", "bits", [4, "x"])])
    def test_uncoercible_value_is_config_error(self, quick_config, section, key, value):
        from simfd.config import config_from_dict
        doc = quick_config.to_dict()
        doc[section][key] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["tx_antennas", "rx_units"])
    def test_non_integer_grid_is_config_error(self, quick_config, key):
        from simfd.config import config_from_dict
        doc = quick_config.to_dict()
        doc["sim"]["terminals"][0][key] = "ab"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("entry", ["x", True, None])
    def test_non_numeric_power_sweep_is_config_error(self, quick_config, entry):
        from simfd.config import config_from_dict
        doc = quick_config.to_dict()
        doc["evaluation"]["power_sweep_dbm"] = [20.0, entry]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_numeric_power_sweep_is_kept_as_given(self, quick_config):
        from simfd.config import config_from_dict
        doc = quick_config.to_dict()
        doc["evaluation"]["power_sweep_dbm"] = [20, 30.0]
        sweep = config_from_dict(doc).evaluation.power_sweep_dbm
        assert sweep == (20, 30.0) and isinstance(sweep[0], int)

    def test_optional_finetune_fields_are_coerced(self, quick_config):
        from simfd.config import config_from_dict
        doc = quick_config.to_dict()
        doc["training"]["finetune_epochs"] = "7"
        doc["training"]["finetune_lr"] = "0.5"
        tc = config_from_dict(doc).training
        assert tc.finetune_epochs == 7 and isinstance(tc.finetune_epochs, int)
        assert tc.finetune_lr == 0.5
        doc["training"]["finetune_epochs"] = None
        assert config_from_dict(doc).training.finetune_epochs is None
        # zero fine-tuning epochs (evaluate the base model as is) stays valid
        doc["training"]["finetune_epochs"] = 0
        assert config_from_dict(doc).training.finetune_epochs == 0

    def test_preset_digests_are_pinned(self):
        # the checkpoint header stores the digest; changing the document
        # layout or a preset orphans every saved checkpoint
        assert reference_config().digest() == \
            "cdb5eff09e29bcd7a93606ab5904e0cc1dcdded0a7dcccfcd411d8bb0fa0ad54"
        assert miniature_config().digest() == \
            "4f47f9d100237509a9d5dfce34efdf4340b73fc44d1cb8a5fa8489df1620d469"

    @pytest.mark.parametrize("path, value", [
        (("sim", "unit_spacing_m"), "x"),
        (("training",), 5),
        (("training", "trainable_power"), "false"),
        (("system", "bits"), "44"),
        (("sim", "terminals", 0, "tx_antennas"), "22"),
        (("training", "power_range_dbm"), [20, 25, 30]),
        (("training", "epochs"), 2.7),
        (("training", "epochs"), True),
        (("training", "learning_rate"), float("nan")),
        (("channel", "noise_dbm"), 10 ** 400),
        (("training", "lr_decay_interval"), 0),
        (("training", "epoch"), 3),
        (("sim", "terminals", 1, "units"), [4, 4]),
        (("extra",), {}),
        (("training", "finetune_epochs"), -5),
        (("training", "weight_decay"), -1.0),
        (("training", "power_alpha"), 0),
        (("training", "power_beta"), -2),
        (("system", "light_speed"), -3e8),
        (("evaluation", "power_sweep_dbm"), [20, 20]),
    ], ids=["spacing-str", "section-int", "bool-str", "bits-str", "grid-str",
            "range-3", "epochs-float", "epochs-bool", "lr-nan", "float-overflow",
            "zero-decay-interval", "misspelt-key", "terminal-unknown-key",
            "unknown-section", "negative-finetune-epochs", "negative-weight-decay",
            "zero-power-alpha", "negative-power-beta", "negative-light-speed",
            "duplicate-sweep-power"])
    def test_malformed_value_is_config_error(self, path, value):
        doc = miniature_config().to_dict()
        # explicit spacings: a bad light speed must fail on its own, not
        # through the negative half-wavelength spacings it would derive
        doc["sim"].update(unit_spacing_m=0.005, layer_spacing_m=0.005)
        reduce(getitem, path[:-1], doc)[path[-1]] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("record, changes, message", [
        ("training", {"lr_decay_interval": 0}, "lr decay interval"),
        ("training", {"finetune_epochs": -5}, "finetune epochs"),
        ("training", {"weight_decay": -1.0}, "weight decay"),
        ("training", {"power_alpha": 0}, "power Beta"),
        ("training", {"power_beta": -2}, "power Beta"),
        ("geometry", {"light_speed": -3e8}, "light speed"),
        ("evaluation", {"power_sweep_dbm": (20, 20)}, "repeats a power"),
        ("channel", {"coherence": 1.5}, "coherence"),
        ("channel", {"distance": 0.5}, "link distance below reference"),
        ("channel", {"reference_distance": 0}, "reference distance must be positive"),
        ("channel", {"path_loss_exponent": 0}, "path loss exponent"),
        ("channel", {"shadowing_db": -1}, "shadowing std"),
        ("channel", {"si_shadowing_db": -1}, "shadowing std"),
        ("channel", {"si_distance": 0}, "SI distance"),
        ("terminal", {"tx_unit_grid": (0, 4)}, r"grid dimensions must be >= 1"),
        ("terminal", {"rx_antenna_grid": (2,)}, r"a grid has two axes \(nx, ny\), got \(2,\)"),
        ("terminal", {"rx_layers": -1}, "layer counts"),
        ("geometry", {"frequency": 0.0}, "frequency"),
        ("geometry", {"unit_spacing": -0.005}, "spacings"),
        ("geometry", {"layer_spacing": 0}, "spacings"),
        ("geometry", {"terminals": ()}, "two terminals"),
        ("system", {"n_bits": (0, 4)}, "bit counts"),
        ("system", {"geometry": None}, "geometry section"),
    ], ids=["zero-decay-interval", "negative-finetune-epochs",
            "negative-weight-decay", "zero-power-alpha", "negative-power-beta",
            "negative-light-speed", "duplicate-sweep-power", "coherence-above-one",
            "distance-below-reference", "zero-reference-distance",
            "zero-path-loss-exponent", "negative-shadowing", "negative-si-shadowing",
            "zero-si-distance", "zero-unit-grid", "one-axis-grid", "negative-layers",
            "zero-frequency", "negative-spacing", "zero-layer-spacing", "no-terminals",
            "zero-bits", "no-geometry"])
    def test_out_of_range_record_is_config_error_at_construction(self, record,
                                                                 changes, message):
        # every config record checks itself when built, replace() included
        cfg = miniature_config()
        target = {"system": cfg, "geometry": cfg.geometry,
                  "terminal": cfg.geometry.terminal(1), "channel": cfg.channel,
                  "training": cfg.training, "evaluation": cfg.evaluation}[record]
        with pytest.raises(ConfigError, match=message):
            replace(target, **changes)

    @pytest.mark.parametrize("path", [
        ("system", "frequency_hz"), ("sim", "terminals"), ("sim",),
        ("sim", "terminals", 0, "rx_layers")])
    def test_field_without_default_is_required(self, path):
        doc = miniature_config().to_dict()
        del reduce(getitem, path[:-1], doc)[path[-1]]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_omitted_keys_take_dataclass_defaults(self):
        doc = miniature_config().to_dict()
        for key in ("label", "distance_m", "bits", "light_speed"):
            del doc["system"][key]
        del doc["channel"]
        cfg = config_from_dict(doc)
        assert cfg.label == "default" and cfg.n_bits == (12, 8)
        assert cfg.channel == ChannelConfig()
        assert cfg.geometry == miniature_config().geometry

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(mutated_documents())
    def test_mutated_document_loads_or_is_config_error(self, doc):
        try:
            cfg = config_from_dict(doc)
        except ConfigError:
            return
        again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.digest() == cfg.digest()

    def test_derived_seed_is_stable(self):
        assert ev.derive_seed(1234, 0) == ev.derive_seed(1234, 0)
        assert ev.derive_seed(1234, 0) != ev.derive_seed(1234, 1)
        assert ev.derive_seed(0, 1) != ev.derive_seed(1, 0)
