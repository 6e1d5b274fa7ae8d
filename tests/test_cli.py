import csv
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from orbitrans.cli import build_parser, fmt, main, read_similarity_csv, write_atomic
from orbitrans.census import compute_gdd, compute_orbit_frequencies, graphlet_class_frequencies
from orbitrans.graph_core import (
    SnapshotPolicy,
    build_snapshots,
    final_aggregate_graph,
    parse_edge_list,
    snapshot_stats,
)
from orbitrans.metrics import (
    MergeStep,
    gda_matrix,
    hierarchical_cluster,
    motif_scores_from_counts,
    ota_matrix,
)
from orbitrans.nullmodel import ensemble_frequencies
from orbitrans.transitions import accumulate_series, discretize, row_normalize
from oracles import exhaustive_transitions

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def read_rows(path: Path) -> list[list[str]]:
    with open(path) as fh:
        return list(csv.reader(fh))


def write_network(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / f"{name}.txt"
    p.write_text(text)
    return p


def write_manifest(tmp_path: Path, body: str) -> Path:
    p = tmp_path / "manifest.ini"
    p.write_text(body)
    return p


@pytest.fixture
def toy_run(tmp_path):
    """Two small networks and a manifest; returns (manifest path, out dir)."""
    write_network(
        tmp_path,
        "densify",
        "a b 0\nb c 1\nc d 2\na c 10\nb d 12\na d 21\n",
    )
    write_network(
        tmp_path,
        "churn",
        "p q 3\nq r 4\nr s 13\ns p 14\np r 22\nq s 24\n",
    )
    manifest = write_manifest(
        tmp_path,
        "[settings]\nwidth = 10\ncount = 3\nseed = 17\nreplicates = 6\n\n"
        "[densify]\npath = densify.txt\npolicy = aggregate\n\n"
        "[churn]\npath = churn.txt\npolicy = active\n",
    )
    return manifest, tmp_path / "out"


class TestStats:
    def test_outputs_and_parity(self, toy_run):
        manifest, out = toy_run
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        rows = read_rows(out / "densify.stats.csv")
        assert rows[0] == ["snapshot", "nodes", "edges", "avg_degree", "clustering", "cpl"]
        tel = parse_edge_list((manifest.parent / "densify.txt").read_text())
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=3))
        expected = snapshot_stats(series)
        for row, exp in zip(rows[1:], expected):
            assert row == [fmt(exp[c]) for c in ("snapshot", "nodes", "edges", "avg_degree", "clustering", "cpl")]

    def test_combined_long_format(self, toy_run):
        manifest, out = toy_run
        main(["stats", "--manifest", str(manifest), "--out", str(out)])
        rows = read_rows(out / "stats.csv")
        assert rows[0][0] == "network"
        names = {r[0] for r in rows[1:]}
        assert names == {"densify", "churn"}
        assert len(rows) == 1 + 2 * 3


class TestCensus:
    def test_fr_csv_matches_library(self, toy_run):
        manifest, out = toy_run
        assert main(["census", "--manifest", str(manifest), "--out", str(out)]) == 0
        tel = parse_edge_list((manifest.parent / "densify.txt").read_text())
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=3))
        for i, snap in enumerate(series.snapshots):
            rows = read_rows(out / f"densify.snap{i}.fr.csv")
            assert rows[0] == ["node"] + [f"orbit_{j}" for j in range(1, 12)]
            fr = compute_orbit_frequencies(snap, 4)
            assert [r[0] for r in rows[1:]] == list(tel.labels)
            got = np.array([[int(x) for x in r[1:]] for r in rows[1:]])
            assert np.array_equal(got, fr.counts)

    def test_final_bundle_is_event_union(self, toy_run):
        manifest, out = toy_run
        main(["census", "--manifest", str(manifest), "--out", str(out)])
        tel = parse_edge_list((manifest.parent / "densify.txt").read_text())
        g = final_aggregate_graph(tel)
        rows = read_rows(out / "densify.final.classes.csv")
        got = {r[0]: int(r[1]) for r in rows[1:]}
        assert got == graphlet_class_frequencies(g, 4)

    def test_gdd_json_well_formed(self, toy_run):
        manifest, out = toy_run
        main(["census", "--manifest", str(manifest), "--out", str(out)])
        bundle = json.loads((out / "densify.final.gdd.json").read_text())
        assert bundle["k"] == 4
        assert bundle["scaling"] == "inverse_k"
        for dist in bundle["orbits"].values():
            total = sum(dist["normalized"].values())
            assert total == pytest.approx(1.0) or total == 0.0

    def test_k3_flag(self, toy_run):
        manifest, out = toy_run
        assert main(["census", "--manifest", str(manifest), "--out", str(out), "--k", "3"]) == 0
        rows = read_rows(out / "densify.final.fr.csv")
        assert rows[0] == ["node", "orbit_1", "orbit_2", "orbit_3"]


class TestTransitions:
    def test_csv_and_json_match_library_and_oracle(self, toy_run):
        manifest, out = toy_run
        assert main(["transitions", "--manifest", str(manifest), "--out", str(out)]) == 0
        tel = parse_edge_list((manifest.parent / "densify.txt").read_text())
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=3))
        t = accumulate_series(series, 4)

        rows = read_rows(out / "densify.transitions.csv")
        assert rows[0] == ["orbit"] + [str(b) for b in range(1, 12)]
        got = np.array([[int(x) for x in r[1:]] for r in rows[1:]])
        assert np.array_equal(got, t.counts)

        # independent recomputation of the same numbers
        oracle = sum(
            exhaustive_transitions(series[i], series[i + 1], 4)[0] for i in range(2)
        )
        assert np.array_equal(got, oracle)

        bundle = json.loads((out / "densify.transitions.json").read_text())
        assert bundle["pairs_processed"] == 2
        assert np.array_equal(np.array(bundle["counts"]), t.counts)
        nt = row_normalize(t)
        assert np.allclose(np.array(bundle["normalized"]), nt)
        assert bundle["fingerprint"] == [list(r) for r in discretize(nt)]
        assert sum(bundle["dissolved"].values()) + int(t.counts.sum()) == bundle[
            "total_node_transitions"
        ]

    def test_normalized_csv_formatting(self, toy_run):
        manifest, out = toy_run
        main(["transitions", "--manifest", str(manifest), "--out", str(out)])
        rows = read_rows(out / "churn.transitions_normalized.csv")
        values = [float(x) for r in rows[1:] for x in r[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)


class TestMotifs:
    def test_parity_with_library(self, toy_run):
        manifest, out = toy_run
        assert main(["motifs", "--manifest", str(manifest), "--out", str(out)]) == 0
        tel = parse_edge_list((manifest.parent / "churn.txt").read_text())
        g = final_aggregate_graph(tel)
        means = ensemble_frequencies(g, 4, replicates=6, swaps_per_edge=10, seed=17)
        real = graphlet_class_frequencies(g, 4)
        order = list(real)
        fp = motif_scores_from_counts([real[n] for n in order], [means[n] for n in order])
        rows = read_rows(out / "churn.motifs.csv")
        assert [r[0] for r in rows[1:]] == order
        for row, name, score in zip(rows[1:], order, fp):
            assert row[1] == fmt(real[name])
            assert row[2] == fmt(means[name])
            assert row[3] == fmt(score)
        meta = json.loads((out / "motifs.meta.json").read_text())
        assert meta["seed"] == 17 and meta["replicates"] == 6

    def test_cli_seed_flag_yields_to_manifest(self, toy_run):
        manifest, out = toy_run
        other = manifest.parent / "out2"
        main(["motifs", "--manifest", str(manifest), "--out", str(out), "--seed", "99"])
        main(["motifs", "--manifest", str(manifest), "--out", str(other), "--seed", "123"])
        assert (out / "churn.motifs.csv").read_text() == (
            other / "churn.motifs.csv"
        ).read_text()


class TestCompare:
    def test_ota_matrix_and_tree(self, toy_run):
        manifest, out = toy_run
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        rows = read_rows(out / "compare_ota.csv")
        assert rows[0] == ["network", "densify", "churn"]
        values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.allclose(values, values.T)
        assert np.allclose(np.diag(values), 1.0)

        mats = []
        for name, mode in (("densify", "aggregate"), ("churn", "active")):
            tel = parse_edge_list((manifest.parent / f"{name}.txt").read_text())
            series = build_snapshots(tel, SnapshotPolicy(mode, width=10, count=3))
            mats.append(accumulate_series(series, 4))
        sim = ota_matrix(["densify", "churn"], mats)
        assert values == pytest.approx(sim.values)

        tree = json.loads((out / "compare_ota.tree.json").read_text())
        assert len(tree) == 1
        assert set(tree[0]) == {"left", "right", "height"}

        meta = json.loads((out / "compare_ota.meta.json").read_text())
        assert meta["metric"] == "ota"
        assert meta["relative_rescale"] is True
        assert meta["networks"]["densify"]["policy"] == "aggregate"

    def test_gda_and_motif_metrics_run(self, toy_run):
        manifest, out = toy_run
        assert main(
            ["compare", "--manifest", str(manifest), "--out", str(out), "--metric", "gda",
             "--gda-include-k3"]
        ) == 0
        assert main(
            ["compare", "--manifest", str(manifest), "--out", str(out), "--metric", "motif"]
        ) == 0
        gda = read_similarity_csv(out / "compare_gda.csv", "GDA")
        assert np.allclose(np.diag(gda.values), 1.0)
        motif = read_similarity_csv(out / "compare_motif.csv", "MotifDistance")
        assert np.allclose(np.diag(motif.values), 0.0)
        meta = json.loads((out / "compare_gda.meta.json").read_text())
        assert meta["gda_include_k3"] is True

    def test_per_orbit_scaling_flag(self, toy_run):
        manifest, out = toy_run
        main(
            ["compare", "--manifest", str(manifest), "--out", str(out),
             "--ota-scaling", "per_orbit"]
        )
        rows = read_rows(out / "compare_ota.csv")
        assert float(rows[1][1]) == pytest.approx(11.0)

    def test_single_network_rejected(self, tmp_path):
        write_network(tmp_path, "only", "a b 1\nb c 2\n")
        manifest = write_manifest(
            tmp_path, "[only]\npath = only.txt\nwidth = 5\ncount = 2\n"
        )
        assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2


class TestCluster:
    def test_round_trip_from_csv(self, toy_run, tmp_path):
        manifest, out = toy_run
        main(["compare", "--manifest", str(manifest), "--out", str(out)])
        cluster_out = tmp_path / "cl"
        assert main(
            ["cluster", "--matrix", str(out / "compare_ota.csv"), "--out", str(cluster_out)]
        ) == 0
        tree = json.loads((cluster_out / "cluster.tree.json").read_text())
        sim = read_similarity_csv(out / "compare_ota.csv", "OTA")
        expected = hierarchical_cluster(sim, linkage="average")
        got = [
            MergeStep(left=tuple(s["left"]), right=tuple(s["right"]), height=s["height"])
            for s in tree
        ]
        assert got == expected

    def test_bad_matrix_file(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("network,a\nwrong,1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, capsys, cell):
        bad = tmp_path / "m.csv"
        bad.write_text(f"network,a,b,c\na,1,0.5,0.2\nb,0.5,1,{cell}\nc,0.2,{cell},1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: row 'b', column 'c': '{cell}' is not finite" in err
        assert not (tmp_path / "cluster.tree.json").exists()

    def test_short_row_rejected(self, tmp_path, capsys):
        # numpy would broadcast a single value across the whole row
        bad = tmp_path / "m.csv"
        bad.write_text("network,a,b\na,1\nb,1,1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        assert f"{bad}: row 'a' has 1 of 2 values" in capsys.readouterr().err

    def test_repeated_network_name_rejected(self, tmp_path, capsys):
        # a tree would merge ["a"] with ["a"] and could not tell them apart
        bad = tmp_path / "m.csv"
        bad.write_text("network,a,a\na,1,0.5\na,0.5,1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        assert f"{bad}: header names network 'a' more than once" in capsys.readouterr().err
        assert not (tmp_path / "cluster.tree.json").exists()

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("network,a,b,c\na,1,0.5,0.2\nb,0.5,1,0.3\nc,0.25,0.3,1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: matrix is not symmetric: row 'a', column 'c' is 0.2, " \
            "but row 'c', column 'a' is 0.25" in err
        assert not (tmp_path / "cluster.tree.json").exists()


class TestDeterminismAndFailure:
    def test_rerun_byte_identical(self, toy_run):
        manifest, out = toy_run
        other = manifest.parent / "out_b"
        for dest in (out, other):
            for cmd in ("stats", "census", "transitions", "motifs"):
                main([cmd, "--manifest", str(manifest), "--out", str(dest)])
            main(["compare", "--manifest", str(manifest), "--out", str(dest)])
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in other.iterdir())
        mismatch = [n for n in names if not filecmp.cmp(out / n, other / n, shallow=False)]
        assert mismatch == []

    def test_partial_failure_isolated(self, tmp_path):
        write_network(tmp_path, "good", "a b 0\nb c 5\nc a 12\n")
        (tmp_path / "bad.txt").write_text("x y notatime\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\n\n"
            "[good]\npath = good.txt\n\n[bad]\npath = bad.txt\n",
        )
        out = tmp_path / "out"
        code = main(["stats", "--manifest", str(manifest), "--out", str(out)])
        assert code == 1
        assert (out / "good.stats.csv").exists()
        assert not (out / "bad.stats.csv").exists()

    def test_motifs_meta_written_on_partial_failure(self, tmp_path):
        write_network(tmp_path, "good", "a b 0\nb c 5\nc a 12\n")
        (tmp_path / "bad.txt").write_text("x y notatime\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\nreplicates = 2\n\n"
            "[good]\npath = good.txt\n\n[bad]\npath = bad.txt\n",
        )
        out = tmp_path / "out"
        assert main(["motifs", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert (out / "good.motifs.csv").exists()
        assert not (out / "bad.motifs.csv").exists()
        meta = json.loads((out / "motifs.meta.json").read_text())
        assert set(meta["networks"]) == {"good", "bad"}

    def test_census_overflow_fails_alone(self, tmp_path, monkeypatch, capsys):
        # the degree guard's OverflowError is a per-network failure, not a crash
        monkeypatch.setattr("orbitrans.census._MAX_DEGREE", 2)
        write_network(tmp_path, "star", "h a 0\nh b 0\nh c 0\n")
        write_network(tmp_path, "path", "a b 0\nb c 0\nc d 0\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\n\n[star]\npath = star.txt\n\n"
            "[path]\npath = path.txt\n",
        )
        out = tmp_path / "out"
        assert main(["census", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert "error: network 'star': a node of degree 3 " in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"path.{tag}.{kind}" for tag in ("snap0", "snap1", "final")
            for kind in ("fr.csv", "classes.csv", "gdd.json")
        )

    def test_network_without_width_fails_before_any_load(self, tmp_path, capsys):
        # a configuration error of the run (exit 2), reported before any network loads
        write_network(tmp_path, "full", "a b 0\nb c 5\n")
        write_network(tmp_path, "nop", "a b 0\nb c 5\n")
        manifest = write_manifest(
            tmp_path, "[full]\npath = full.txt\nwidth = 10\ncount = 2\n\n[nop]\npath = nop.txt\n"
        )
        out = tmp_path / "o"
        for argv in (["transitions"], ["stats"], ["census"], ["compare", "--metric", "ota"]):
            assert main([*argv, "--manifest", str(manifest), "--out", str(out)]) == 2, argv
            assert capsys.readouterr().err == (
                f"error: manifest {manifest} [nop]: snapshot width/count not configured; "
                "set 'width' and 'count' in the manifest\n"
            )
            assert not out.exists()
        # a run that builds no snapshots reads no width
        assert main(["compare", "--metric", "gda", "--manifest", str(manifest), "--out", str(out)]) == 0


class TestManifestK:
    @pytest.fixture
    def k3_run(self, toy_run):
        manifest, out = toy_run
        manifest.write_text(manifest.read_text().replace("[settings]\n", "[settings]\nk = 3\n"))
        return manifest, out

    def test_compare_and_motifs_honour_k(self, k3_run):
        manifest, out = k3_run
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        mats = []
        for name, mode in (("densify", "aggregate"), ("churn", "active")):
            tel = parse_edge_list((manifest.parent / f"{name}.txt").read_text())
            series = build_snapshots(tel, SnapshotPolicy(mode, width=10, count=3))
            mats.append(accumulate_series(series, 3))
        sim = ota_matrix(["densify", "churn"], mats)
        got = read_similarity_csv(out / "compare_ota.csv", "OTA")
        assert got.values == pytest.approx(sim.values)
        assert json.loads((out / "compare_ota.meta.json").read_text())["k"] == 3

        assert main(["motifs", "--manifest", str(manifest), "--out", str(out)]) == 0
        rows = read_rows(out / "churn.motifs.csv")
        assert [r[0] for r in rows[1:]] == ["chain", "triangle"]
        assert json.loads((out / "motifs.meta.json").read_text())["k"] == 3

    @pytest.mark.parametrize("argv", [["motifs"], ["compare", "--metric", "gda"]])
    def test_k_flag_writes_what_manifest_k_writes(self, toy_run, argv):
        manifest, out = toy_run
        k3 = manifest.parent / "k3.ini"
        k3.write_text(manifest.read_text().replace("[settings]\n", "[settings]\nk = 3\n"))
        assert main([*argv, "--manifest", str(k3), "--out", str(out / "manifest")]) == 0
        assert main([*argv, "--manifest", str(manifest), "--k", "3", "--out", str(out / "flag")]) == 0
        names = sorted(p.name for p in (out / "manifest").iterdir())
        assert names == sorted(p.name for p in (out / "flag").iterdir())
        metas = [name for name in names if name.endswith(".meta.json")]
        assert len(metas) == 1 and json.loads((out / "flag" / metas[0]).read_text())["k"] == 3
        for name in names:
            assert (out / "manifest" / name).read_bytes() == (out / "flag" / name).read_bytes(), name

    def test_gda_k3_pools_3_node_orbits_once(self, tmp_path):
        texts = {"tail": "a b 0\nb c 1\nc d 2\nd e 3\nc e 4\n",
                 "hub": "a b 0\na c 1\na d 2\na e 3\nb c 4\n"}
        for name, text in texts.items():
            write_network(tmp_path, name, text)
        manifest = write_manifest(
            tmp_path,
            "[settings]\nk = 3\nwidth = 10\ncount = 1\n\n"
            "[tail]\npath = tail.txt\n\n[hub]\npath = hub.txt\n",
        )
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out),
                     "--metric", "gda"]) == 0
        gdds = [
            [compute_gdd(compute_orbit_frequencies(final_aggregate_graph(parse_edge_list(t)), 3))]
            for t in texts.values()
        ]
        expected = gda_matrix(list(texts), gdds).values
        assert expected[0, 1] < 1.0
        got = read_similarity_csv(out / "compare_gda.csv", "GDA")
        assert got.values == pytest.approx(expected)

    def test_gda_include_k3_needs_k4(self, k3_run, capsys):
        # a k = 3 run has no 4-node orbits to pool into, so the flag would do nothing
        manifest, out = k3_run
        plain = manifest.parent / "plain.ini"
        plain.write_text(manifest.read_text().replace("k = 3\n", ""))
        for path, k_flag, where in ((manifest, [], f"manifest {manifest} [settings]: k = 3"),
                                    (plain, ["--k", "3"], "--k 3")):
            argv = ["compare", "--metric", "gda", "--gda-include-k3", *k_flag,
                    "--manifest", str(path), "--out", str(out)]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: --gda-include-k3 pools 3-node orbits into a k = 4 run, "
                f"but this run has {where}\n"
            )
            assert not out.exists()


class TestWriteAtomic:
    def test_stale_tmp_directory_does_not_block(self, tmp_path):
        target = tmp_path / "x.csv"
        (tmp_path / "x.csv.tmp").mkdir()
        write_atomic(target, "a,b\n")
        assert target.read_text() == "a,b\n"
        assert [p for p in tmp_path.glob("*.tmp") if not p.is_dir()] == []

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr("orbitrans.cli.os.replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_atomic(tmp_path / "x.csv", "a,b\n")
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    """An --out below a regular file cannot be created."""

    @pytest.fixture
    def blocked(self, toy_run):
        manifest, _out = toy_run
        (manifest.parent / "afile").write_text("")
        return manifest, manifest.parent / "afile" / "sub"

    @pytest.mark.parametrize("argv", [["compare"], ["compare", "--metric", "gda"], ["motifs"]])
    def test_run_level_writers_exit_2(self, blocked, capsys, argv):
        manifest, out = blocked
        assert main([*argv, "--manifest", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}/" in err and ": Not a directory" in err
        assert "Traceback" not in err

    def test_cluster_exit_2(self, blocked, capsys):
        manifest, out = blocked
        good = manifest.parent / "good"
        assert main(["compare", "--manifest", str(manifest), "--out", str(good)]) == 0
        capsys.readouterr()
        assert main(["cluster", "--matrix", str(good / "compare_ota.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'cluster.tree.json'}: Not a directory\n"

    @pytest.mark.parametrize("command, target", [
        ("compare", "compare_ota.csv"), ("compare", "compare_ota.tree.json"),
        ("compare", "compare_ota.meta.json"), ("motifs", "motifs.meta.json"), ("stats", "stats.csv"),
        ("cluster", "cluster.tree.json"),
    ])
    def test_directory_in_place_of_a_run_file_exits_2(self, toy_run, capsys, command, target):
        manifest, out = toy_run
        argv = ["--manifest", str(manifest)]
        if command == "cluster":
            assert main(["compare", *argv, "--out", str(out / "good")]) == 0
            argv = ["--matrix", str(out / "good" / "compare_ota.csv")]
        (out / target).mkdir(parents=True)
        assert main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out / target}: Is a directory\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "census", "transitions"])
    def test_per_network_writers_exit_1(self, blocked, capsys, command):
        manifest, out = blocked
        assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for name in ("densify", "churn"):
            assert f"error: network '{name}': cannot write {out / name}." in err
        assert "Traceback" not in err


class TestManifestValidation:
    def test_missing_manifest_file(self, tmp_path, capsys):
        assert main(["stats", "--manifest", str(tmp_path / "nope.ini"), "--out", "o"]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_no_networks(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "[settings]\nwidth = 5\n")
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2
        assert "no networks" in capsys.readouterr().err

    def test_missing_path_key(self, tmp_path):
        manifest = write_manifest(tmp_path, "[x]\nwidth = 5\ncount = 2\n")
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2

    def test_nonexistent_input(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "[x]\npath = ghost.txt\n")
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_names_sharing_a_file_stem(self, tmp_path, capsys):
        # 'n/x' and 'n_x' both map to n_x.*: the second network would overwrite the first
        write_network(tmp_path, "n", "a b 0\nb c 5\nc d 12\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\n\n[n/x]\npath = n.txt\n\n[n_x]\npath = n.txt\n",
        )
        out = tmp_path / "out"
        assert main(["transitions", "--manifest", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: manifest {manifest}: networks 'n/x' and 'n_x' "
                       "both write files named n_x.*\n")
        assert not out.exists()

    def test_duplicate_sections(self, tmp_path):
        write_network(tmp_path, "n", "a b 1\n")
        manifest = write_manifest(tmp_path, "[x]\npath = n.txt\n\n[x]\npath = n.txt\n")
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2

    def test_bad_integer_value(self, tmp_path, capsys):
        write_network(tmp_path, "n", "a b 1\n")
        manifest = write_manifest(tmp_path, "[x]\npath = n.txt\nwidth = soon\ncount = 2\n")
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_bad_choice_value(self, tmp_path):
        write_network(tmp_path, "n", "a b 1\n")
        manifest = write_manifest(
            tmp_path, "[x]\npath = n.txt\npolicy = cumulative\nwidth = 5\ncount = 2\n"
        )
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2

    @pytest.mark.parametrize("key", ["replicates", "swaps_per_edge"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_null_model_setting(self, tmp_path, capsys, key, value):
        # stats never uses the null model, but a bad setting is still an error
        write_network(tmp_path, "n", "a b 1\n")
        manifest = write_manifest(
            tmp_path, f"[settings]\n{key} = {value}\n\n[x]\npath = n.txt\nwidth = 5\ncount = 2\n"
        )
        for command in ("stats", "motifs"):
            assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert f"manifest {manifest} [settings]: {key} = {int(value)} must be at least 1" in err

    @pytest.mark.parametrize("flag", ["--replicates", "--swaps-per-edge"])
    def test_non_positive_null_model_flag(self, tmp_path, capsys, flag):
        write_network(tmp_path, "n", "a b 1\n")
        manifest = write_manifest(tmp_path, "[x]\npath = n.txt\nwidth = 5\ncount = 2\n")
        argv = ["--manifest", str(manifest), "--out", str(tmp_path / "o"), flag, "0"]
        assert main(["motifs", *argv]) == 2
        assert f"{flag} = 0 must be at least 1" in capsys.readouterr().err
        assert main(["compare", *argv, "--metric", "motif"]) == 2
        assert f"{flag} = 0 must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["section", "settings", "flag"])
    @pytest.mark.parametrize("key, value, minimum", [("width", 0, 1), ("count", 1, 2)])
    def test_snapshot_setting_below_minimum(self, tmp_path, capsys, where, key, value, minimum):
        # a configuration error, located, before any network loads
        write_network(tmp_path, "n", "a b 1\n")
        other = "count = 2" if key == "width" else "width = 5"
        setting = f"{key} = {value}\n"
        manifest = write_manifest(
            tmp_path,
            f"[settings]\n{setting if where == 'settings' else ''}\n"
            f"[n1]\npath = n.txt\n{other}\n{setting if where == 'section' else ''}",
        )
        located = {
            "section": f"manifest {manifest} [n1]: {key}",
            "settings": f"manifest {manifest} [settings]: {key}",
            "flag": f"--{key}",
        }[where]
        flags = [f"--{key}", str(value)] if where == "flag" else []
        # compare --metric ota builds snapshots; motifs and the other metrics do not
        for command in ("stats", "census", "transitions", "compare"):
            argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "o"), *flags]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {located} = {value} must be at least {minimum}\n"
        assert not (tmp_path / "o").exists()

    def test_k_outside_its_choices(self, tmp_path, capsys):
        write_network(tmp_path, "n", "a b 1\n")
        manifest = write_manifest(
            tmp_path, "[settings]\nk = 5\n\n[x]\npath = n.txt\nwidth = 5\ncount = 2\n"
        )
        for command in ("stats", "census", "transitions", "motifs", "compare"):
            assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == \
                f"error: manifest {manifest} [settings]: k must be one of (3, 4), got '5'\n"

    def test_manifest_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestRunReport:
    def test_load_counts_on_stderr(self, tmp_path, capsys):
        # 5 data lines: one self-loop, one event past the window [0, 20)
        write_network(tmp_path, "a", "# comment\nx y 0\ny y 3\ny z 5\n\nz x 12\nx w 40\n")
        write_network(tmp_path, "b", "p q 1\nq r 2\nr p 3\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\npolicy = active\n\n"
            "[a]\npath = a.txt\n\n[b]\npath = b.txt\n",
        )
        out = tmp_path / "out"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        window = "events outside the snapshot window"
        assert capsys.readouterr().err == (
            f"network 'a': 5 events read, 1 self-loops dropped, 1 {window}\n"
            f"network 'b': 3 events read, 0 self-loops dropped, 0 {window}\n"
        )
        # the final graph uses every event, so no window is reported
        args = ["--manifest", str(manifest), "--out", str(out), "--metric", "gda"]
        assert main(["compare", *args]) == 0
        assert capsys.readouterr().err == (
            "network 'a': 5 events read, 1 self-loops dropped\n"
            "network 'b': 3 events read, 0 self-loops dropped\n"
        )
        # the report stays out of the output files
        assert all("events read" not in f.read_text() for f in out.iterdir())


class TestGoldenFiles:
    """Byte-exact fixtures produced by this tool and cross-checked below."""

    def run_all(self, out: Path) -> None:
        manifest = DATA / "manifest.ini"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert main(["transitions", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert main(["census", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert main(["motifs", "--manifest", str(manifest), "--out", str(out)]) == 0
        for metric in ("gda", "motif"):
            assert main(["compare", "--metric", metric, "--manifest", str(manifest),
                         "--out", str(out)]) == 0

    def test_outputs_match_golden(self, tmp_path):
        out = tmp_path / "out"
        self.run_all(out)
        for golden in sorted(GOLDEN.iterdir()):
            produced = out / golden.name
            assert produced.exists(), f"missing output {golden.name}"
            assert produced.read_text() == golden.read_text(), golden.name

    def test_golden_transitions_verified_by_oracle(self):
        # guards the checked-in files themselves against drift
        tel = parse_edge_list((DATA / "alpha.txt").read_text())
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=4))
        oracle = sum(
            exhaustive_transitions(series[i], series[i + 1], 4)[0] for i in range(3)
        )
        rows = read_rows(GOLDEN / "alpha.transitions.csv")
        got = np.array([[int(x) for x in r[1:]] for r in rows[1:]])
        assert np.array_equal(got, oracle)


def registered_flags(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {o for a in sub.choices[command]._actions for o in a.option_strings} - {"-h", "--help"}


SNAPSHOT_FLAGS = {"--manifest", "--out", "--sep", "--policy", "--width", "--count"}
METRIC_FLAGS = {
    "ota": {"--policy", "--width", "--count", "--ota-scaling", "--no-relative-rescale"},
    "gda": {"--gdd-scaling", "--gda-include-k3"},
    "motif": {"--seed", "--replicates", "--swaps-per-edge"},
}
# a valid value for each flag that takes one
FLAG_VALUES = {
    "--manifest": "m.ini", "--sep": "ws", "--policy": "active", "--width": "5", "--count": "2",
    "--seed": "1", "--replicates": "2", "--swaps-per-edge": "2", "--ota-scaling": "per_orbit",
    "--gdd-scaling": "plain",
}


def flag_argv(flag: str) -> list[str]:
    return [flag, FLAG_VALUES[flag]] if flag in FLAG_VALUES else [flag]


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    def test_registered_flags(self):
        assert {c: registered_flags(c) for c in
                ("stats", "census", "transitions", "motifs", "compare", "cluster")} == {
            "stats": SNAPSHOT_FLAGS,
            "census": SNAPSHOT_FLAGS | {"--k", "--gdd-scaling"},
            "transitions": SNAPSHOT_FLAGS | {"--k"},
            "motifs": {"--manifest", "--out", "--sep", "--k", "--seed", "--replicates",
                       "--swaps-per-edge"},
            "compare": {"--manifest", "--out", "--sep", "--k", "--metric", "--linkage"}.union(
                *METRIC_FLAGS.values()),
            "cluster": {"--out", "--matrix", "--matrix-kind", "--linkage"},
        }

    @pytest.mark.parametrize("command, flag", [
        ("stats", "--seed"), ("census", "--seed"), ("transitions", "--seed"),
        ("motifs", "--policy"), ("motifs", "--width"), ("motifs", "--count"),
        ("cluster", "--manifest"), ("cluster", "--seed"), ("cluster", "--policy"),
        ("cluster", "--width"), ("cluster", "--count"), ("cluster", "--sep"),
    ])
    def test_unread_flag_rejected_by_argparse(self, toy_run, capsys, command, flag):
        manifest, out = toy_run
        if command == "cluster":
            assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
            argv = ["cluster", "--matrix", str(out / "compare_ota.csv")]
        else:
            argv = [command, "--manifest", str(manifest)]
        out = out.parent / "unread"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), *flag_argv(flag)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag_argv(flag))}" in err
        assert f"usage: orbitrans {command} [-h]" in err
        assert not out.exists()

    @pytest.mark.parametrize("metric, flag", [
        (metric, flag) for metric in METRIC_FLAGS
        for flag in sorted(set().union(*METRIC_FLAGS.values()) - METRIC_FLAGS[metric])
    ])
    def test_compare_rejects_flag_its_metric_does_not_read(self, toy_run, capsys, metric, flag):
        manifest, out = toy_run
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--manifest", str(manifest), "--out", str(out),
                  "--metric", metric, *flag_argv(flag)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: compare --metric {metric} does not read {flag}\n" in err
        assert "usage: orbitrans compare [-h]" in err
        assert not out.exists()

    @pytest.mark.parametrize("metric", list(METRIC_FLAGS))
    def test_compare_accepts_every_flag_its_metric_reads(self, toy_run, metric):
        manifest, out = toy_run
        flags = [a for flag in sorted(METRIC_FLAGS[metric]) for a in flag_argv(flag)]
        assert main(["compare", "--manifest", str(manifest), "--out", str(out),
                     "--metric", metric, "--linkage", "single", "--sep", "ws", *flags]) == 0
        assert (out / f"compare_{metric}.csv").exists()


class TestManifestKeys:
    """A key its section does not define is a located configuration error."""

    @pytest.mark.parametrize("settings, network, message", [
        pytest.param("replicate = 3\n", "", "[settings]: unknown key 'replicate'", id="settings-typo"),
        pytest.param("", "widht = 10\n", "[n1]: unknown key 'widht'", id="network-typo"),
        pytest.param("path = n.txt\n", "", "[settings]: 'path' belongs in a network section",
                     id="settings-path"),
        pytest.param("", "out = elsewhere\n", "[n1]: 'out' belongs in [settings]", id="network-out"),
        pytest.param("", "seed = 3\n", "[n1]: 'seed' belongs in [settings]", id="network-seed"),
    ])
    def test_key_outside_its_section(self, tmp_path, capsys, settings, network, message):
        write_network(tmp_path, "n", "a b 1\nb c 2\n")
        manifest = write_manifest(
            tmp_path,
            f"[settings]\nwidth = 5\ncount = 2\n{settings}\n[n1]\npath = n.txt\n{network}\n"
            "[n2]\npath = n.txt\n",
        )
        out = tmp_path / "o"
        for command in ("stats", "census", "transitions", "motifs", "compare"):
            assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: manifest {manifest} {message}\n"
        assert not out.exists()

    def test_settings_a_subcommand_does_not_read_are_accepted(self, toy_run):
        # one manifest serves every subcommand
        manifest, out = toy_run
        manifest.write_text(manifest.read_text().replace(
            "[settings]\n",
            "[settings]\nk = 4\nswaps_per_edge = 3\nota_scaling = normalized\n"
            "relative_rescale = yes\ngdd_scaling = plain\nlinkage = single\norigin = 0\n"
            "sep = ws\npolicy = active\n",
        ))
        for command in ("stats", "census", "transitions", "motifs", "compare"):
            assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 0

    def test_default_section_is_copied_into_every_section(self, tmp_path, capsys):
        # configparser gives every section the keys of [DEFAULT]
        write_network(tmp_path, "n", "a b 1\nb c 12\n")
        body = "[DEFAULT]\nwidth = 10\ncount = 2\n{extra}\n[settings]\n\n[n1]\npath = n.txt\n"
        manifest = write_manifest(tmp_path, body.format(extra=""))
        out = tmp_path / "o"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert len(read_rows(out / "n1.stats.csv")) == 1 + 2
        capsys.readouterr()
        # so a [settings]-only key there lands in every network section too
        manifest = write_manifest(tmp_path, body.format(extra="seed = 3\n"))
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: manifest {manifest} [n1]: 'seed' belongs in [settings]\n"

    @pytest.mark.parametrize("value, expected", [("off", False), ("Yes", True), (None, False)])
    def test_relative_rescale_setting_and_flag(self, toy_run, value, expected):
        # the manifest wins over --no-relative-rescale, which wins over the default
        manifest, out = toy_run
        if value is not None:
            manifest.write_text(manifest.read_text().replace(
                "[settings]\n", f"[settings]\nrelative_rescale = {value}\n"))
        assert main(["compare", "--manifest", str(manifest), "--out", str(out),
                     "--no-relative-rescale"]) == 0
        meta = json.loads((out / "compare_ota.meta.json").read_text())
        assert meta["relative_rescale"] is expected

    def test_relative_rescale_must_be_a_boolean(self, toy_run, capsys):
        manifest, out = toy_run
        manifest.write_text(manifest.read_text().replace(
            "[settings]\n", "[settings]\nrelative_rescale = maybe\n"))
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: manifest {manifest} [settings]: relative_rescale = 'maybe' is not a boolean\n"


SNAPSHOT_KEYS = {"policy", "width", "count", "origin"}


class TestMetaFiles:
    """A meta file records k and exactly the settings its run read."""

    @pytest.mark.parametrize("argv, name, keys, network_keys", [
        (["motifs"], "motifs", {"seed", "replicates", "swaps_per_edge"}, set()),
        (["compare", "--metric", "ota"], "compare_ota",
         {"metric", "kind", "linkage", "ota_scaling", "relative_rescale"}, SNAPSHOT_KEYS),
        (["compare", "--metric", "gda"], "compare_gda",
         {"metric", "kind", "linkage", "gdd_scaling", "gda_include_k3"}, set()),
        (["compare", "--metric", "motif"], "compare_motif",
         {"metric", "kind", "linkage", "seed", "replicates", "swaps_per_edge"}, set()),
    ])
    def test_keys(self, toy_run, argv, name, keys, network_keys):
        manifest, out = toy_run
        assert main([*argv, "--manifest", str(manifest), "--out", str(out)]) == 0
        meta = json.loads((out / f"{name}.meta.json").read_text())
        assert set(meta) == {"tool_version", "k", "networks"} | keys
        assert list(meta["networks"]) == ["densify", "churn"]
        for entry in meta["networks"].values():
            assert set(entry) == {"path", "sep"} | network_keys
