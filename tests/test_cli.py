import csv
import filecmp
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitrans
from orbitrans import catalogue, census, cli, graph_core, metrics, nullmodel, transitions
from orbitrans.cli import (
    CliError,
    build_parser,
    fmt,
    main,
    read_similarity_csv,
    write_atomic,
    write_csv,
    write_json,
)
from orbitrans.census import compute_gdd, compute_orbit_frequencies, graphlet_class_frequencies
from orbitrans.graph_core import (
    SnapshotPolicy,
    build_snapshots,
    final_aggregate_graph,
    parse_edge_list,
    snapshot_stats,
)
from orbitrans.metrics import (
    gda_matrix,
    hierarchical_cluster,
    motif_scores_from_counts,
    ota_matrix,
)
from orbitrans.nullmodel import ensemble_frequencies
from orbitrans.transitions import accumulate_series, discretize, row_normalize
from oracles import exhaustive_transitions
from test_acceptance import _timed_lattice_text
from test_transitions import drop_first_seeded_block

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
        assert rows[1:] == [[fmt(cell) for cell in exp] for exp in expected]

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

    @pytest.mark.parametrize("policy, count, censuses", [
        ("aggregate", 3, 3),  # no event past the window: the last snapshot is the final graph
        ("aggregate", 2, 3),  # the event at t = 21 lies past the window
        ("active", 3, 4),
    ])
    def test_one_census_per_distinct_graph(self, toy_run, monkeypatch, policy, count, censuses):
        manifest, out = toy_run
        manifest.write_text(f"[settings]\nwidth = 10\ncount = {count}\n\n"
                            f"[densify]\npath = densify.txt\npolicy = {policy}\n")
        graphs = []
        # cmd_census looks the function up in census when it runs, where the tracer patches it
        monkeypatch.setattr(census, "compute_orbit_frequencies",
                            lambda g, k: graphs.append(g) or compute_orbit_frequencies(g, k))
        assert main(["census", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert len(graphs) == censuses
        tel = parse_edge_list((manifest.parent / "densify.txt").read_text())
        final = compute_orbit_frequencies(final_aggregate_graph(tel), 4)
        rows = read_rows(out / "densify.final.fr.csv")
        assert np.array_equal([[int(x) for x in r[1:]] for r in rows[1:]], final.counts)

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
        assert values == pytest.approx(np.asarray(ota_matrix(["densify", "churn"], mats)))

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
        _names, gda = read_similarity_csv(out / "compare_gda.csv")
        assert np.allclose(np.diag(gda), 1.0)
        _names, motif = read_similarity_csv(out / "compare_motif.csv")
        assert np.allclose(np.diag(motif), 0.0)
        meta = json.loads((out / "compare_gda.meta.json").read_text())
        assert meta["gda_include_k3"] is True

    def test_per_orbit_scaling_flag(self, toy_run):
        # per_orbit scores a network against itself 11, and both settings reach the meta file
        manifest, out = toy_run
        for flags, rescale in (([], True), (["--no-relative-rescale"], False)):
            assert main(["compare", "--manifest", str(manifest), "--out", str(out),
                         "--ota-scaling", "per_orbit", *flags]) == 0
            rows = read_rows(out / "compare_ota.csv")
            assert [row[i + 1] for i, row in enumerate(rows[1:])] == ["11", "11"]
            meta = json.loads((out / "compare_ota.meta.json").read_text())
            assert (meta["ota_scaling"], meta["relative_rescale"]) == ("per_orbit", rescale)

    def test_single_network_rejected(self, tmp_path):
        write_network(tmp_path, "only", "a b 1\nb c 2\n")
        manifest = write_manifest(
            tmp_path, "[only]\npath = only.txt\nwidth = 5\ncount = 2\n"
        )
        assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2


def edit_file(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def edit_json(path: Path, edit: Callable[[dict], None], indent: int | None = None) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj, indent=indent))


def add_count(product: dict, to_total: bool) -> None:
    """One more transition in the product's first cell, and in its
    conservation total if ``to_total``."""
    product["counts"][0][0] += 1
    product["total_node_transitions"] += to_total


def fail_densify_in_transitions(manifest: Path, out: Path) -> None:
    """Rerun transitions with densify's first file blocked: it gets no meta
    entry, but its earlier transitions.json stays."""
    blocked = out / "densify.transitions.csv"
    blocked.unlink()
    blocked.mkdir()
    assert main(["transitions", "--manifest", str(manifest), "--out", str(out)]) == 1
    blocked.rmdir()


def edit_densify_record(command: str, edit: Callable[[dict], None]) -> Callable[[Path, Path], None]:
    """A stale case that applies ``edit`` to densify's record in ``command``'s meta file."""
    return lambda m, out: edit_json(out / f"{command}.meta.json",
                                    lambda meta: edit(meta["networks"]["densify"]))


def set_first_count(value) -> Callable[[dict], None]:
    """An edit that puts ``value`` in the first cell of the ``counts`` of a transitions record."""
    return lambda record: record["counts"][0].__setitem__(0, value)


def move_densify_input(manifest: Path, out: Path) -> None:
    (manifest.parent / "moved.txt").write_bytes((manifest.parent / "densify.txt").read_bytes())
    edit_file(manifest, "path = densify.txt", "path = moved.txt")


# case -> (what it does to a finished transitions run, the networks compare must recompute)
STALE_PRODUCTS = {
    "input byte edited": (lambda m, out: edit_file(m.parent / "densify.txt", " 21", " 11"), 1),
    "width changed": (lambda m, out: edit_file(m, "width = 10", "width = 11"), 2),
    "count changed": (lambda m, out: edit_file(m, "count = 3", "count = 4"), 2),
    "policy changed": (lambda m, out: edit_file(m, "policy = aggregate", "policy = active"), 1),
    "origin changed": (lambda m, out: edit_file(m, "[settings]\n", "[settings]\norigin = 1\n"), 2),
    "sep changed": (lambda m, out: edit_file(m, "[densify]\n", "[densify]\nsep = comma\n"), 1),
    "k changed": (lambda m, out: edit_file(m, "[settings]\n", "[settings]\nk = 3\n"), 2),
    "input moved": (move_densify_input, 1),
    "another tool_version": (lambda m, out: edit_json(
        out / "transitions.meta.json", lambda meta: meta.update(tool_version="0.0.0")), 2),
    "meta missing": (lambda m, out: (out / "transitions.meta.json").unlink(), 2),
    "meta not JSON": (lambda m, out: (out / "transitions.meta.json").write_text("{"), 2),
    "meta not an object": (lambda m, out: (out / "transitions.meta.json").write_text("[]"), 2),
    "meta networks not an object": (lambda m, out: edit_json(
        out / "transitions.meta.json", lambda meta: meta.update(networks=[])), 2),
    "meta entry not an object": (lambda m, out: edit_json(
        out / "transitions.meta.json", lambda meta: meta["networks"].update(densify=[])), 1),
    "load count missing": (edit_densify_record("transitions", lambda r: r.pop("events_read")), 1),
    "load count a boolean": (edit_densify_record("transitions", lambda r: r.update(events_read=True)), 1),
    "load count negative": (edit_densify_record(
        "transitions", lambda r: r.update(events_outside_window=-1)), 1),
    "counts missing": (edit_densify_record("transitions", lambda r: r.pop("counts")), 1),
    "counts of k = 3 under k = 4": (edit_densify_record(
        "transitions", lambda r: r.update(counts=[row[:3] for row in r["counts"][:3]])), 1),
    "counts with a row missing": (edit_densify_record("transitions", lambda r: r["counts"].pop()), 1),
    "count negative": (edit_densify_record("transitions", set_first_count(-1)), 1),
    "count a boolean": (edit_densify_record("transitions", set_first_count(True)), 1),
    "count a float": (edit_densify_record("transitions", set_first_count(0.0)), 1),
    "network failed in transitions": (fail_densify_in_transitions, 1),
}

# case -> what it does to each <name>.transitions.json of a finished transitions run
PRODUCT_FILE_SPOILS = {
    "count altered": lambda product: edit_json(product, lambda p: add_count(p, True), indent=2),
    "conservation total broken": lambda product: edit_json(product, lambda p: add_count(p, False), indent=2),
    "deleted": Path.unlink,
}


class TestProductReuse:
    """compare --metric ota reads back the counts transitions wrote where
    transitions.meta.json shows them current, and computes them otherwise."""

    @pytest.fixture
    def stored(self, tmp_path):
        """A finished transitions run: (manifest, out). densify's lines parse
        under either separator, to different graphs."""
        write_network(tmp_path, "densify", "a ,b, 0\nb ,c, 1\nc ,d, 2\na ,c, 10\nb ,d, 12\na ,d, 21\n")
        write_network(tmp_path, "churn", "p q 3\nq r 4\nr s 13\ns p 14\np r 22\nq s 24\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 3\n\n"
            "[densify]\npath = densify.txt\npolicy = aggregate\n\n"
            "[churn]\npath = churn.txt\npolicy = active\n",
        )
        out = tmp_path / "out"
        assert main(["transitions", "--manifest", str(manifest), "--out", str(out)]) == 0
        return manifest, out

    @staticmethod
    def compare(manifest: Path, out: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
        """The exit code, stderr and compare_ota.* files of compare --metric ota into ``out``."""
        capsys.readouterr()
        code = main(["compare", "--manifest", str(manifest), "--out", str(out)])
        return code, capsys.readouterr().err, {p.name: p.read_bytes() for p in out.glob("compare_ota.*")}

    def test_reuse_writes_what_a_fresh_run_writes(self, stored, tmp_path, monkeypatch, capsys):
        manifest, out = stored
        fresh = self.compare(manifest, tmp_path / "fresh", capsys)
        assert fresh[0] == 0 and fresh[1].count("events read") == 2 and len(fresh[2]) == 3

        def refuse(*args, **kwargs):
            raise AssertionError("compare recomputed a stored product")

        monkeypatch.setattr(transitions, "accumulate_series", refuse)
        monkeypatch.setattr(graph_core, "parse_edge_list", refuse)
        # the inputs are hashed in blocks, not read into memory whole
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: refuse() if p.suffix == ".txt" else read_bytes(p))
        assert self.compare(manifest, out, capsys) == fresh

    @pytest.mark.parametrize("case", STALE_PRODUCTS)
    def test_stale_product_recomputed(self, stored, tmp_path, monkeypatch, capsys, case):
        manifest, out = stored
        spoil, recomputed = STALE_PRODUCTS[case]
        spoil(manifest, out)
        calls = []
        accumulate = transitions.accumulate_series
        monkeypatch.setattr(transitions, "accumulate_series",
                            lambda series, k: calls.append(k) or accumulate(series, k))
        written = self.compare(manifest, out, capsys)
        assert len(calls) == recomputed
        assert written == self.compare(manifest, tmp_path / "fresh", capsys)
        assert written[0] == 0

    @pytest.mark.parametrize("spoil", PRODUCT_FILE_SPOILS)
    def test_product_files_are_not_read(self, stored, monkeypatch, capsys, spoil):
        # compare reads the counts from transitions.meta.json, never from <name>.transitions.json
        manifest, out = stored
        before = self.compare(manifest, out, capsys)
        products = [*out.glob("*.transitions.json")]
        assert len(products) == 2
        for product in products:
            PRODUCT_FILE_SPOILS[spoil](product)

        def refuse(*args, **kwargs):
            raise AssertionError("compare recomputed a stored product")

        monkeypatch.setattr(transitions, "accumulate_series", refuse)
        assert self.compare(manifest, out, capsys) == before


def fail_densify_in_motifs(manifest: Path, out: Path) -> None:
    """Rerun motifs with densify's file blocked: it gets no record, and its
    earlier motifs.csv is gone."""
    blocked = out / "densify.motifs.csv"
    blocked.unlink()
    blocked.mkdir()
    assert main(["motifs", "--manifest", str(manifest), "--out", str(out)]) == 1
    blocked.rmdir()


def rename_first_class(counts: dict) -> None:
    name = next(iter(counts))
    counts[f"{name}s"] = counts.pop(name)


def set_densify_orbit(j: int, pairs: list) -> Callable[[Path, Path], None]:
    """A stale case that sets orbit ``j`` + 1 of densify's stored census to ``pairs``. Its
    census is [[[1, 6]], [[0, 4], [1, 2]], [[0, 2], [2, 2], [3, 2]], ...], six nodes in each
    orbit: each case below breaks one property the check reads and keeps the others."""
    return edit_densify_record("motifs", lambda record: record["gdd"].__setitem__(j, pairs))


# case -> (what it does to a finished motifs run, the networks compare must recompute)
STALE_MOTIFS = {
    "another tool_version": (lambda m, out: edit_json(
        out / "motifs.meta.json", lambda meta: meta.update(tool_version="0.0.0")), 2),
    "k changed": (lambda m, out: edit_file(m, "[settings]\n", "[settings]\nk = 3\n"), 2),
    "seed changed": (lambda m, out: edit_file(m, "seed = 5", "seed = 6"), 2),
    "replicates changed": (lambda m, out: edit_file(m, "replicates = 3", "replicates = 2"), 2),
    "swaps_per_edge changed": (lambda m, out: edit_file(m, "swaps_per_edge = 4", "swaps_per_edge = 5"), 2),
    "input moved": (move_densify_input, 1),
    "sep changed": (lambda m, out: edit_file(m, "[densify]\n", "[densify]\nsep = comma\n"), 1),
    "input byte edited": (lambda m, out: edit_file(m.parent / "densify.txt", " 21", " 11"), 1),
    "load count missing": (edit_densify_record("motifs", lambda r: r.pop("self_loops_dropped")), 1),
    "load count a boolean": (edit_densify_record("motifs", lambda r: r.update(events_read=True)), 1),
    "load count negative": (edit_densify_record("motifs", lambda r: r.update(self_loops_dropped=-1)), 1),
    "input digest missing": (edit_densify_record("motifs", lambda r: r.pop("input_sha256")), 1),
    "gdd of k = 3 under k = 4": (edit_densify_record("motifs", lambda r: r.update(gdd=r["gdd"][:3])), 1),
    "ensemble class renamed": (edit_densify_record(
        "motifs", lambda r: rename_first_class(r["ensemble_means"])), 1),
    "gdd orbit missing": (edit_densify_record("motifs", lambda r: r["gdd"].pop()), 1),
    "ensemble mean an int": (edit_densify_record(
        "motifs", lambda r: r["ensemble_means"].update(star=round(r["ensemble_means"]["star"]))), 1),
    "gdd count a float": (set_densify_orbit(0, [[1, 6.0]]), 1),
    "gdd count a boolean": (set_densify_orbit(1, [[0, 4], [True, 2]]), 1),
    "gdd missing": (edit_densify_record("motifs", lambda r: r.pop("gdd")), 1),
    "gdd count negative": (set_densify_orbit(1, [[-1, 4], [1, 2]]), 1),
    "gdd nodes zero": (set_densify_orbit(1, [[0, 4], [1, 2], [5, 0]]), 1),
    "gdd degrees out of order": (set_densify_orbit(2, [[0, 2], [3, 2], [2, 2]]), 1),
    "gdd degree repeated": (set_densify_orbit(2, [[0, 2], [2, 2], [2, 2]]), 1),
    "gdd pair of three": (set_densify_orbit(0, [[1, 6, 0]]), 1),
    "gdd totals unequal": (set_densify_orbit(0, [[1, 7]]), 1),
    "ensemble mean negative": (edit_densify_record(
        "motifs", lambda r: r["ensemble_means"].update(cycle=-1.0)), 1),
    "ensemble mean Infinity": (edit_densify_record(
        "motifs", lambda r: r["ensemble_means"].update(path=math.inf)), 1),
    "ensemble means missing": (edit_densify_record("motifs", lambda r: r.pop("ensemble_means")), 1),
    "meta missing": (lambda m, out: (out / "motifs.meta.json").unlink(), 2),
    "meta not JSON": (lambda m, out: (out / "motifs.meta.json").write_text("{"), 2),
    "network failed in motifs": (fail_densify_in_motifs, 1),
}

# the cases in which compare --metric gda reuses the census and the motif distance computes: the
# census depends on k, but neither on the null model's settings nor on the ensemble means
GDA_REUSES = ("seed changed", "replicates changed", "swaps_per_edge changed", "ensemble class renamed",
              "ensemble mean an int", "ensemble mean negative", "ensemble mean Infinity",
              "ensemble means missing")
# case -> (what it does to a finished motifs run, the networks compare --metric gda must recompute)
STALE_CENSUS = {case: (spoil, 0 if case in GDA_REUSES else recomputed)
                for case, (spoil, recomputed) in STALE_MOTIFS.items()}


class TestMotifReuse:
    """compare --metric motif reads back the orbit census and ensemble means, and compare
    --metric gda the census, that motifs recorded where motifs.meta.json shows them current,
    and computes them otherwise."""

    @pytest.fixture
    def stored(self, tmp_path):
        """A finished motifs run: (manifest, out). densify's lines parse under
        either separator, to different graphs."""
        write_network(tmp_path, "densify", "a ,b, 0\nb ,c, 1\nc ,d, 2\na ,c, 10\nb ,d, 12\na ,d, 21\n")
        write_network(tmp_path, "churn", "p q 3\nq r 4\nr s 13\ns p 14\np r 22\nt p 24\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nseed = 5\nreplicates = 3\nswaps_per_edge = 4\n\n"
            "[densify]\npath = densify.txt\n\n[churn]\npath = churn.txt\n",
        )
        out = tmp_path / "out"
        assert main(["motifs", "--manifest", str(manifest), "--out", str(out)]) == 0
        return manifest, out

    @staticmethod
    def compare(manifest: Path, out: Path, capsys, metric: str = "motif",
                flags: Sequence[str] = ()) -> tuple[int, str, dict[str, bytes]]:
        """The exit code, stderr and compare_<metric>.* files of compare --metric ``metric`` into ``out``."""
        capsys.readouterr()
        code = main(["compare", "--metric", metric, *flags, "--manifest", str(manifest), "--out", str(out)])
        return code, capsys.readouterr().err, {p.name: p.read_bytes() for p in out.glob(f"compare_{metric}.*")}

    @staticmethod
    def count_censuses(monkeypatch) -> list[int]:
        """The k of each call of census.compute_orbit_frequencies from here on."""
        calls, frequencies = [], census.compute_orbit_frequencies
        monkeypatch.setattr(census, "compute_orbit_frequencies", lambda g, k: calls.append(k) or frequencies(g, k))
        return calls

    def test_reuse_writes_what_a_fresh_run_writes(self, stored, tmp_path, monkeypatch, capsys):
        manifest, out = stored
        fresh = self.compare(manifest, tmp_path / "fresh", capsys)
        assert fresh[0] == 0 and fresh[1].count("events read") == 2 and len(fresh[2]) == 3

        def refuse(*args, **kwargs):
            raise AssertionError("compare recomputed a stored product")

        for module, name in ((nullmodel, "ensemble_frequencies"), (census, "graphlet_class_frequencies"),
                             (graph_core, "parse_edge_list")):
            monkeypatch.setattr(module, name, refuse)
        # the inputs are hashed in blocks, not read into memory whole
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: refuse() if p.suffix == ".txt" else read_bytes(p))
        assert self.compare(manifest, out, capsys) == fresh

    @pytest.mark.parametrize("scaling", ["inverse_k", "plain"])
    def test_gda_reuse_writes_what_a_fresh_run_writes(self, stored, tmp_path, monkeypatch, capsys, scaling):
        manifest, out = stored
        flags = ["--gdd-scaling", scaling]
        fresh = self.compare(manifest, tmp_path / "fresh", capsys, "gda", flags)
        assert fresh[0] == 0 and fresh[1].count("events read") == 2 and len(fresh[2]) == 3

        def refuse(*args, **kwargs):
            raise AssertionError("compare recomputed a stored census")

        for module, name in ((census, "compute_orbit_frequencies"), (census, "compute_gdd"),
                             (graph_core, "parse_edge_list")):
            monkeypatch.setattr(module, name, refuse)
        assert self.compare(manifest, out, capsys, "gda", flags) == fresh

    def test_gda_with_k3_computes_every_network(self, stored, tmp_path, monkeypatch, capsys):
        # the stored census is of k = 4 alone, so none is read and every network is computed
        manifest, out = stored
        calls = self.count_censuses(monkeypatch)
        written = self.compare(manifest, out, capsys, "gda", ["--gda-include-k3"])
        assert calls == [4, 3, 4, 3]
        assert written == self.compare(manifest, tmp_path / "fresh", capsys, "gda", ["--gda-include-k3"])
        assert written[0] == 0 and len(calls) == 8

    @pytest.mark.parametrize("case", STALE_MOTIFS)
    def test_stale_product_recomputed(self, stored, tmp_path, monkeypatch, capsys, case):
        manifest, out = stored
        spoil, recomputed = STALE_MOTIFS[case]
        spoil(manifest, out)
        calls = []
        frequencies = nullmodel.ensemble_frequencies
        monkeypatch.setattr(nullmodel, "ensemble_frequencies",
                            lambda g, *settings: calls.append(g) or frequencies(g, *settings))
        written = self.compare(manifest, out, capsys)
        assert len(calls) == recomputed
        assert written == self.compare(manifest, tmp_path / "fresh", capsys)
        assert written[0] == 0

    @pytest.mark.parametrize("case", STALE_CENSUS)
    def test_stale_census_recomputed_by_gda(self, stored, tmp_path, monkeypatch, capsys, case):
        # GDA reads a motifs record's load counts and census alone
        manifest, out = stored
        spoil, recomputed = STALE_CENSUS[case]
        spoil(manifest, out)
        calls = self.count_censuses(monkeypatch)
        written = self.compare(manifest, out, capsys, "gda")
        assert len(calls) == recomputed
        assert written == self.compare(manifest, tmp_path / "fresh", capsys, "gda")
        assert written[0] == 0

    @settings(max_examples=60, deadline=None)
    # the null model needs two distinct edges
    @given(edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
                          min_size=2, max_size=30, unique_by=frozenset),
           k=st.sampled_from([3, 4]))
    def test_stored_census_derives_the_library_values(self, tmp_path_factory, edges, k):
        # the class counts and normalized GDDs of a stored record equal the library's, bit for bit
        where = tmp_path_factory.mktemp("census")
        text = "".join(f"{u} {v} {t}\n" for t, (u, v) in enumerate(edges))
        (where / "g.txt").write_text(text)
        manifest = write_manifest(where, "[settings]\nreplicates = 1\nswaps_per_edge = 1\n\n[g]\npath = g.txt\n")
        assert main(["motifs", "--k", str(k), "--manifest", str(manifest), "--out", str(where)]) == 0
        record = cli._read_json_object(where / "motifs.meta.json")["networks"]["g"]
        assert cli._census_gdd(record["gdd"], k, record)
        g = final_aggregate_graph(parse_edge_list(text))
        assert catalogue._gdd_class_counts(record["gdd"], k) == graphlet_class_frequencies(g, k)
        fr = compute_orbit_frequencies(g, k)
        for scaling in ("inverse_k", "plain"):
            got = catalogue._normalized_gdd(map(dict, record["gdd"]), scaling)
            want = compute_gdd(fr, scaling)[1]
            assert [[(d, p.hex()) for d, p in dist.items()] for dist in got] == [
                [(d, p.hex()) for d, p in dist.items()] for dist in want]

    def test_ensemble_frequencies_runs_once_per_computed_network(self, stored, tmp_path, monkeypatch,
                                                                  capsys):
        # the CLI's null model goes through the public function that perfbench's tracer times
        manifest, out = stored
        calls = []
        frequencies = nullmodel.ensemble_frequencies
        monkeypatch.setattr(nullmodel, "ensemble_frequencies",
                            lambda g, *settings: calls.append(g) or frequencies(g, *settings))
        assert main(["motifs", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 0
        assert len(calls) == 2
        assert self.compare(manifest, out, capsys)[0] == 0
        assert len(calls) == 2
        assert self.compare(manifest, tmp_path / "fresh", capsys)[0] == 0
        assert len(calls) == 4

    @settings(max_examples=300, deadline=None)
    @given(total=st.integers(0, 2**64), replicates=st.integers(1, 10**6))
    def test_stored_mean_reads_back_exactly(self, tmp_path_factory, total, replicates):
        # a mean as ensemble_frequencies divides it, through the meta file's writer and reader
        path = tmp_path_factory.getbasetemp() / "mean.meta.json"
        write_json(path, {"networks": {"n": {"ensemble_means": {"star": total / replicates}}}})
        mean = cli._read_json_object(path)["networks"]["n"]["ensemble_means"]["star"]
        assert type(mean) is float and mean.hex() == (total / replicates).hex()


def set_densify_bin(i: int, keys: list) -> Callable[[dict], None]:
    """An edit that sets bin ``i`` of a series record to ``keys``. densify's bins are
    [[1, 15, 29], [3, 17], [5], []]: keys u*6 + v of its six labels."""
    return lambda record: record["bins"].__setitem__(i, keys)


# case -> (what it does to a finished stats run, the networks census must parse again)
STALE_SERIES = {
    "input byte edited": (lambda m, out: edit_file(m.parent / "densify.txt", " 21", " 11"), 1),
    "input moved": (move_densify_input, 1),
    "policy changed": (lambda m, out: edit_file(m, "policy = aggregate", "policy = active"), 1),
    "width changed": (lambda m, out: edit_file(m, "width = 10", "width = 11"), 2),
    "count changed": (lambda m, out: edit_file(m, "count = 3", "count = 4"), 2),
    "origin changed": (lambda m, out: edit_file(m, "[settings]\n", "[settings]\norigin = 1\n"), 2),
    "sep changed": (lambda m, out: edit_file(m, "[densify]\n", "[densify]\nsep = comma\n"), 1),
    "k changed": (lambda m, out: edit_file(m, "[settings]\n", "[settings]\nk = 3\n"), 0),
    "another tool_version": (lambda m, out: edit_json(
        out / "snapshots.meta.json", lambda meta: meta.update(tool_version="0.0.0")), 2),
    "meta missing": (lambda m, out: (out / "snapshots.meta.json").unlink(), 2),
    "meta not JSON": (lambda m, out: (out / "snapshots.meta.json").write_text("{"), 2),
    "meta not an object": (lambda m, out: (out / "snapshots.meta.json").write_text("[]"), 2),
    "input digest missing": (edit_densify_record("snapshots", lambda r: r.pop("input_sha256")), 1),
    "events read missing": (edit_densify_record("snapshots", lambda r: r.pop("events_read")), 1),
    "self-loops dropped a boolean": (edit_densify_record(
        "snapshots", lambda r: r.update(self_loops_dropped=False)), 1),
    "events outside negative": (edit_densify_record(
        "snapshots", lambda r: r.update(events_outside_window=-1)), 1),
    "labels missing": (edit_densify_record("snapshots", lambda r: r.pop("labels")), 1),
    "label not a string": (edit_densify_record("snapshots", lambda r: r["labels"].__setitem__(0, 0)), 1),
    "label repeated": (edit_densify_record("snapshots", lambda r: r["labels"].__setitem__(0, "b")), 1),
    "bins missing": (edit_densify_record("snapshots", lambda r: r.pop("bins")), 1),
    "bin missing": (edit_densify_record("snapshots", lambda r: r["bins"].pop()), 1),
    "bin added": (edit_densify_record("snapshots", lambda r: r["bins"].append([])), 1),
    "bin not a list": (edit_densify_record("snapshots", set_densify_bin(3, {})), 1),
    "bin unsorted": (edit_densify_record("snapshots", set_densify_bin(0, [15, 1, 29])), 1),
    "key repeated": (edit_densify_record("snapshots", set_densify_bin(0, [1, 15, 15, 29])), 1),
    "key negative": (edit_densify_record("snapshots", set_densify_bin(0, [-3, 1, 15, 29])), 1),
    "key past n squared": (edit_densify_record("snapshots", set_densify_bin(3, [37])), 1),
    "key with u > v": (edit_densify_record("snapshots", set_densify_bin(3, [6])), 1),
    "key with u = v": (edit_densify_record("snapshots", set_densify_bin(3, [7])), 1),
    "key a boolean": (edit_densify_record("snapshots", set_densify_bin(3, [True])), 1),
    "key a float": (edit_densify_record("snapshots", set_densify_bin(2, [5.0])), 1),
}


class TestSeriesReuse:
    """stats, census, transitions and compare --metric ota read each network's snapshot
    series back from snapshots.meta.json where it is current, and parse the input otherwise."""

    @pytest.fixture
    def stored(self, tmp_path):
        """A finished stats run: (manifest, out). densify's lines parse under either
        separator, to different graphs."""
        write_network(tmp_path, "densify", "a ,b, 0\nb ,c, 1\nc ,d, 2\na ,c, 10\nb ,d, 12\na ,d, 21\n")
        write_network(tmp_path, "churn", "p q 3\nq r 4\nr s 13\ns p 14\np r 22\nq s 24\nq p 40\nq t 41\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 3\n\n"
            "[densify]\npath = densify.txt\npolicy = aggregate\n\n"
            "[churn]\npath = churn.txt\npolicy = active\n",
        )
        out = tmp_path / "out"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        return manifest, out

    @staticmethod
    def run(argv: list[str], manifest: Path, out: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
        """The exit code, stderr and files other than the stats files of ``argv`` run into ``out``."""
        capsys.readouterr()
        code = main([*argv, "--manifest", str(manifest), "--out", str(out)])
        return code, capsys.readouterr().err, {
            p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith("stats.csv")}

    def test_record(self, stored):
        manifest, out = stored
        meta = json.loads((out / "snapshots.meta.json").read_text())
        assert list(meta) == ["tool_version", "networks"]
        assert meta["networks"]["densify"] == {
            "path": str(manifest.parent / "densify.txt"), "policy": "aggregate", "width": 10, "count": 3,
            "origin": None, "sep": "ws",
            "input_sha256": hashlib.sha256((manifest.parent / "densify.txt").read_bytes()).hexdigest(),
            "events_read": 6, "self_loops_dropped": 0, "events_outside_window": 0,
            "labels": ["a", ",b,", "b", ",c,", "c", ",d,"], "bins": [[1, 15, 29], [3, 17], [5], []]}
        # churn's last two events fall past the window; the last bin holds the pair q-t,
        # 1*5 + 4, but not p-q, which a snapshot holds
        churn = meta["networks"]["churn"]
        assert churn["events_outside_window"] == 2 and churn["bins"][-1] == [9]

    def test_rewrite_stores_a_record_read_back_as_a_fresh_run_does(self, stored, capsys):
        # densify's record is read back with a count equal to the manifest's but a float, and
        # a key of its own; census parses churn again, so it rewrites the file
        manifest, out = stored
        fresh = (out / "snapshots.meta.json").read_bytes()
        edit_json(out / "snapshots.meta.json", lambda meta: (
            meta["networks"]["densify"].update(count=3.0, note="not stored"), meta["networks"].pop("churn")))
        code, _err, files = self.run(["census"], manifest, out, capsys)
        assert code == 0 and files["snapshots.meta.json"] == fresh

    @pytest.mark.parametrize("argv", [["stats"], ["census"], ["transitions"], ["census", "--k", "3"],
                                      ["compare"]], ids=["stats", "census", "transitions", "census-k3",
                                                         "compare"])
    def test_reuse_writes_what_a_fresh_run_writes(self, stored, tmp_path, monkeypatch, capsys, argv):
        manifest, out = stored
        before = (out / "snapshots.meta.json").read_bytes()
        fresh = self.run(argv, manifest, tmp_path / "fresh", capsys)
        assert fresh[0] == 0 and fresh[1].count("events outside the snapshot window") == 2

        def refuse(*args, **kwargs):
            raise AssertionError("the series was built again")

        monkeypatch.setattr(graph_core, "parse_edge_list", refuse)
        monkeypatch.setattr(graph_core, "build_snapshots", refuse)
        written = self.run(argv, manifest, out, capsys)
        # compare never writes the series file; the others write the bytes stats wrote
        fresh[2].setdefault("snapshots.meta.json", before)
        assert written == fresh

    @pytest.mark.parametrize("case", STALE_SERIES)
    def test_stale_series_parsed_again(self, stored, tmp_path, monkeypatch, capsys, case):
        manifest, out = stored
        spoil, parsed = STALE_SERIES[case]
        spoil(manifest, out)
        calls = []
        parse = graph_core.parse_edge_list
        monkeypatch.setattr(graph_core, "parse_edge_list", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
        written = self.run(["census"], manifest, out, capsys)
        assert len(calls) == parsed
        assert written == self.run(["census"], manifest, tmp_path / "fresh", capsys)
        assert written[0] == 0

    def test_non_ascii_and_surrogate_labels_round_trip(self, tmp_path, capsys):
        # a lone surrogate parses (surrogatepass) but no UTF-8 file can hold it, so
        # census fails on it alike whether it parsed or read the series back
        write_network(tmp_path, "accent", "zo\u00eb \u00e5sa 0\n\u00e5sa b 5\nb zo\u00eb 12\n")
        (tmp_path / "lone.txt").write_bytes(b"a \xed\xa0\x80 0\n\xed\xa0\x80 b 5\n")
        manifest = write_manifest(tmp_path, "[settings]\nwidth = 10\ncount = 2\nk = 3\n\n"
                                            "[accent]\npath = accent.txt\n\n[lone]\npath = lone.txt\n")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        labels = {name: [*parse_edge_list((tmp_path / f"{name}.txt").read_bytes()).labels]
                  for name in ("accent", "lone")}
        meta = json.loads((out / "snapshots.meta.json").read_text())
        assert {name: meta["networks"][name]["labels"] for name in labels} == labels
        assert labels["lone"][1] == "\ud800"
        reused = self.run(["census"], manifest, out, capsys)
        assert reused == self.run(["census"], manifest, fresh, capsys)
        assert reused[0] == 1 and "error: network 'lone': 'utf-8' codec can't encode" in reused[1]
        assert "zo\u00eb" in reused[2]["accent.final.fr.csv"].decode()


# reader -> the settings and network fields, besides the input path and sep, that what it reads
# depends on: a stored series, transition counts, census and ensemble means, and census alone
READER_DEPENDS = {
    "series": {"policy", "width", "count", "origin"},
    "ota": {"k", "policy", "width", "count", "origin"},
    "motif": {"k", "seed", "replicates", "swaps_per_edge"},
    "gda": {"k"},
}
# reader -> (its argv, the module and function that computes what it would read)
READERS = {
    "gda": (["compare", "--metric", "gda"], census, "compute_orbit_frequencies"),
    "motif": (["compare", "--metric", "motif"], nullmodel, "ensemble_frequencies"),
    "ota": (["compare", "--metric", "ota"], transitions, "accumulate_series"),
    "series": (["stats"], graph_core, "parse_edge_list"),  # last: it rewrites the series file
}
# setting or network field -> (a manifest edit that changes it, another value to store for it)
CHANGES = {
    "k": (lambda m: edit_file(m, "[settings]\n", "[settings]\nk = 3\n"), 3),
    "seed": (lambda m: edit_file(m, "seed = 5", "seed = 6"), 6),
    "replicates": (lambda m: edit_file(m, "replicates = 3", "replicates = 2"), 2),
    "swaps_per_edge": (lambda m: edit_file(m, "swaps_per_edge = 4", "swaps_per_edge = 5"), 5),
    "policy": (lambda m: edit_file(m, "policy = aggregate", "policy = active"), "active"),
    "width": (lambda m: edit_file(m, "width = 10", "width = 11"), 11),
    "count": (lambda m: edit_file(m, "count = 3", "count = 4"), 4),
    "origin": (lambda m: edit_file(m, "[settings]\n", "[settings]\norigin = 1\n"), 1),
    "sep": (lambda m: edit_file(m, "[densify]\n", "[densify]\nsep = comma\n"), "comma"),
    "path": (lambda m: move_densify_input(m, None), "moved.txt"),
}
# the manifest edits that reach densify alone; the others reach both networks. In the stored
# files, a network field is edited in densify's records and a run setting at the top
DENSIFY_ONLY = {"policy", "sep", "path"}


class TestStoreRule:
    """Each reader of a stored record recomputes a network exactly where a setting or network
    field that what it reads depends on has changed, and each file records exactly those."""

    @pytest.fixture
    def stored(self, tmp_path):
        """Finished stats, transitions and motifs runs into one out: (manifest, out)."""
        write_network(tmp_path, "densify", "a ,b, 0\nb ,c, 1\nc ,d, 2\na ,c, 10\nb ,d, 12\na ,d, 21\n")
        write_network(tmp_path, "churn", "p q 3\nq r 4\nr s 13\ns p 14\np r 22\nq s 24\nt p 25\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 3\nseed = 5\nreplicates = 3\nswaps_per_edge = 4\n\n"
            "[densify]\npath = densify.txt\npolicy = aggregate\n\n[churn]\npath = churn.txt\npolicy = active\n",
        )
        out = tmp_path / "out"
        for command in ("stats", "transitions", "motifs"):
            assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 0
        return manifest, out

    @staticmethod
    def run(argv: list[str], manifest: Path, out: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
        """The exit code, stderr and own files (compare_<metric>.* or stats) of ``argv`` into ``out``."""
        capsys.readouterr()
        code = main([*argv, "--manifest", str(manifest), "--out", str(out)])
        own = f"compare_{argv[-1]}." if argv[0] == "compare" else "stats.csv"
        return code, capsys.readouterr().err, {p.name: p.read_bytes() for p in out.iterdir() if own in p.name}

    @pytest.mark.parametrize("where", ["manifest", "stored files"])
    @pytest.mark.parametrize("change", CHANGES)
    def test_reader_recomputes_where_what_it_reads_depends_on_the_change(
            self, stored, tmp_path, monkeypatch, capsys, change, where):
        manifest, out = stored
        edit, value = CHANGES[change]
        if where == "manifest":
            edit(manifest)
        else:
            for meta_file in out.glob("*.meta.json"):
                edit_json(meta_file, lambda meta: (meta["networks"]["densify"] if change in cli.NETWORK_KEYS
                                                   else meta).update({change: value}))
        calls = []
        for _argv, module, name in READERS.values():
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
        recomputed, expected = {}, {}
        for reader, (argv, _module, name) in READERS.items():
            fresh = self.run(argv, manifest, tmp_path / f"fresh_{reader}", capsys)
            calls.clear()
            written = self.run(argv, manifest, out, capsys)
            assert written == fresh and written[0] == 0, reader
            recomputed[reader] = calls.count(name)
            reaches = 1 if change in (DENSIFY_ONLY if where == "manifest" else cli.NETWORK_KEYS) else 2
            expected[reader] = reaches if change in READER_DEPENDS[reader] | {"path", "sep"} else 0
        # a changed k recomputes the census but not the series; a changed seed the means, not the census
        assert recomputed == expected

    def test_each_file_records_what_its_keys_depend_on(self, stored):
        _manifest, out = stored
        for product, reader in (("snapshots", "series"), ("transitions", "ota"), ("motifs", "motif")):
            keys = cli._PRODUCTS[product]
            depends = {dep for key in keys for dep in cli._RECORD_KEYS[key][0]}
            assert depends == READER_DEPENDS[reader]
            meta = json.loads((out / f"{product}.meta.json").read_text())
            assert set(meta) == {"tool_version", "networks"} | depends - set(cli.NETWORK_KEYS), product
            assert list(meta["networks"]) == ["densify", "churn"]
            for record in meta["networks"].values():
                assert set(record) == {"path", "sep", "input_sha256", *keys} | depends & set(cli.NETWORK_KEYS)


@pytest.fixture
def three_networks(tmp_path):
    """Two "closure" lattices and a "random" one, whose three pairwise scores
    differ under every metric; returns (manifest path, out dir)."""
    rng = np.random.default_rng([2027, 0])
    lines = ["[settings]", "width = 10", "count = 6", "origin = 0", "seed = 3", "replicates = 4"]
    for name in ("closure0", "closure1", "random0"):
        write_network(tmp_path, name, _timed_lattice_text(rng, name.startswith("closure")))
        lines += ["", f"[{name}]", f"path = {name}.txt"]
    return write_manifest(tmp_path, "\n".join(lines) + "\n"), tmp_path / "out"


class TestCluster:
    def test_round_trip_from_csv(self, toy_run, tmp_path):
        manifest, out = toy_run
        main(["compare", "--manifest", str(manifest), "--out", str(out)])
        cluster_out = tmp_path / "cl"
        assert main(
            ["cluster", "--matrix", str(out / "compare_ota.csv"), "--out", str(cluster_out)]
        ) == 0
        tree = json.loads((cluster_out / "cluster.tree.json").read_text())
        expected = hierarchical_cluster(*read_similarity_csv(out / "compare_ota.csv"), linkage="average")
        assert tree == expected

    @pytest.mark.parametrize("argv, metric", [
        (["--metric", "ota"], "ota"),
        (["--ota-scaling", "per_orbit"], "ota"),
        (["--metric", "gda"], "gda"),
        (["--metric", "motif"], "motif"),
    ], ids=["ota", "ota-per_orbit", "gda", "motif"])
    def test_cluster_rebuilds_the_compare_tree(self, three_networks, tmp_path, argv, metric):
        # three networks, so reading a distance as an agreement changes the merges
        manifest, out = three_networks
        assert main(["compare", "--manifest", str(manifest), "--out", str(out), *argv]) == 0
        assert main(["cluster", "--matrix", str(out / f"compare_{metric}.csv"),
                     "--out", str(tmp_path / "cl")]) == 0
        expected = json.loads((out / f"compare_{metric}.tree.json").read_text())
        got = json.loads((tmp_path / "cl" / "cluster.tree.json").read_text())
        assert [(s["left"], s["right"]) for s in got] == [(s["left"], s["right"]) for s in expected]
        assert [s["height"] for s in got] == pytest.approx([s["height"] for s in expected], abs=1e-9)

    def test_mixed_diagonal_rejected(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("network,a,b,c\na,0,0.5,0.2\nb,0.5,1,0.3\nc,0.2,0.3,1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: the diagonal is neither all zero (distances) "
                              "nor all positive (agreements): a 0, b 1, c 1")
        assert "Traceback" not in err
        assert not (tmp_path / "cluster.tree.json").exists()

    @pytest.mark.parametrize("text, line", [
        ("network,a,b\n\nb,0.5,1\n", 2),
        ("network,a,b\na,1,0.5\nb,0.5,1\n\n", 4),
    ], ids=["inner", "trailing"])
    def test_blank_line_rejected(self, tmp_path, capsys, text, line):
        bad = tmp_path / "m.csv"
        bad.write_text(text)
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line {line} is blank\n"
        assert not (tmp_path / "cluster.tree.json").exists()

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

    def test_clusters_through_metrics(self, tmp_path, monkeypatch):
        # a wrapper installed on metrics.hierarchical_cluster, as the tracer's is, sees the step
        calls = []
        clusterer = metrics.hierarchical_cluster
        monkeypatch.setattr(metrics, "hierarchical_cluster",
                            lambda *args, **kwargs: calls.append(args) or clusterer(*args, **kwargs))
        matrix = tmp_path / "m.csv"
        matrix.write_text("network,a,b,c\na,1,0.5,0.2\nb,0.5,1,0.3\nc,0.2,0.3,1\n")
        assert main(["cluster", "--matrix", str(matrix), "--out", str(tmp_path)]) == 0
        assert calls == [(("a", "b", "c"), [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])]

    def test_matrix_not_utf8_rejected(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_bytes(b"network,a,zo\xeb\na,1,0.5\nzo\xeb,0.5,1\n")
        assert main(["cluster", "--matrix", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read matrix {bad}: 'utf-8' codec "
                                                  "can't decode byte 0xeb")
        assert not (tmp_path / "cluster.tree.json").exists()

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
        # like the other product files, it lists only the networks it holds a record of
        meta = json.loads((out / "motifs.meta.json").read_text())
        assert set(meta["networks"]) == {"good"}

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
        # star's series was built before its census failed, so both are stored
        assert sorted(p.name for p in out.iterdir()) == sorted([
            *(f"path.{tag}.{kind}" for tag in ("snap0", "snap1", "final")
              for kind in ("fr.csv", "classes.csv", "gdd.json")),
            "snapshots.meta.json",
        ])
        assert list(json.loads((out / "snapshots.meta.json").read_text())["networks"]) == ["star", "path"]

    def test_self_loops_only_network_fails_alone(self, tmp_path, capsys):
        # with no origin set, the snapshot window starts at the first event,
        # and this network keeps none: the error counts what was read
        write_network(tmp_path, "loops", "a a 1\nb b 2\n")
        write_network(tmp_path, "good", "a b 0\nb c 5\nc a 12\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\n\n[loops]\npath = loops.txt\n\n"
            "[good]\npath = good.txt\n",
        )
        out = tmp_path / "out"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert ("error: network 'loops': edge list has no events: 2 events read, "
                "2 self-loops dropped\n") in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["good.stats.csv", "snapshots.meta.json", "stats.csv"]
        assert list(json.loads((out / "snapshots.meta.json").read_text())["networks"]) == ["good"]

    def test_carried_totals_mismatch_fails_alone(self, tmp_path, monkeypatch, capsys):
        # every pair on the delta path, and alpha's first one loses a block of
        # changed sets: the check at the end of its chain fails alpha alone
        monkeypatch.setattr(transitions, "_DELTA_BELOW", dict.fromkeys((3, 4), 1e9))
        monkeypatch.setattr(census, "_BLOCK_CANDIDATES", 2)  # a block per row
        drop_first_seeded_block(monkeypatch)
        out = tmp_path / "out"
        assert main(["transitions", "--manifest", str(DATA / "manifest.ini"), "--out", str(out)]) == 1
        assert ("error: network 'alpha': snapshot pair 2->3: the orbit totals of snapshot 3, "
                "carried from snapshot 0, disagree with its closed-form census") in capsys.readouterr().err
        assert not (out / "alpha.transitions.csv").exists()
        assert (out / "beta.transitions.csv").read_text() == (GOLDEN / "beta.transitions.csv").read_text()

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
        names, got = read_similarity_csv(out / "compare_ota.csv")
        assert names == ("densify", "churn")
        assert got == pytest.approx(np.asarray(ota_matrix(["densify", "churn"], mats)))
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
            [compute_gdd(compute_orbit_frequencies(final_aggregate_graph(parse_edge_list(t)), 3))[1]]
            for t in texts.values()
        ]
        expected = np.asarray(gda_matrix(list(texts), gdds))
        assert expected[0, 1] < 1.0
        _names, got = read_similarity_csv(out / "compare_gda.csv")
        assert got == pytest.approx(expected)

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
        with pytest.raises(CliError, match="cannot write .*x.csv: replace refused"):
            write_atomic(tmp_path / "x.csv", "a,b\n")
        assert list(tmp_path.iterdir()) == []

    def test_unencodable_file_name_named(self, tmp_path):
        # no file-system encoding holds a lone high surrogate, surrogateescape included
        target = tmp_path / "zo\ud800.csv"
        message = (f"cannot write {target}: the file name cannot be encoded in the "
                   f"file-system encoding ({sys.getfilesystemencoding()})")
        with pytest.raises(CliError) as raised:
            write_atomic(target, "a,b\n")
        assert str(raised.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_failed_chmod_closes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(path, mode):
            raise OSError("chmod refused")

        monkeypatch.setattr("orbitrans.cli.os.chmod", refuse)
        open_fds = len(list(Path("/proc/self/fd").iterdir()))
        with pytest.raises(CliError, match="cannot write .*x.csv: chmod refused"):
            write_atomic(tmp_path / "x.csv", "a,b\n")
        assert len(list(Path("/proc/self/fd").iterdir())) == open_fds
        assert list(tmp_path.iterdir()) == []


def reference_csv(header, rows) -> str:
    """What ``write_csv`` wrote when it passed every cell through ``fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


SPECIAL_FLOATS = st.sampled_from((1e-05, 0.1 + 0.2, 5e-324, -0.0, 1e16, 1 / 3))
FLOATS = st.floats() | SPECIAL_FLOATS
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=5)


@st.composite
def gdd_documents(draw):
    """A gdd.json document: per orbit a raw and a normalized distribution,
    an untouched orbit's normalized one empty."""
    orbits = {}
    for j in range(1, draw(st.integers(min_value=1, max_value=11)) + 1):
        raw = draw(st.dictionaries(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1),
                                   max_size=30))
        touched = {d: draw(FLOATS) for d in raw if d >= 1}
        orbits[str(j)] = {"raw": raw, "normalized": touched}
    return {"k": draw(st.sampled_from((3, 4))), "scaling": draw(st.sampled_from(("inverse_k", "plain"))),
            "orbits": orbits,
            "untouched_orbits": [int(j) for j, o in orbits.items() if not o["normalized"]]}


class TestFmt:
    # numpy's integer and float scalars render as Python's do; np.bool_ is neither, so str
    @pytest.mark.parametrize("cell, text", [
        (7, "7"), (-2**70, str(-2**70)), (True, "1"), (False, "0"),
        (np.bool_(True), "True"), (np.bool_(False), "False"),
        (np.int64(-3), "-3"), (np.int64(2**63 - 1), "9223372036854775807"), (np.uint8(255), "255"),
        (np.float32(0.1), "0.10000000149"), (np.float64(1 / 3), "0.333333333333"),
        (np.float64("nan"), "nan"), (np.float32("-inf"), "-inf"),
        (0.1 + 0.2, "0.3"), (-0.0, "-0"), (1e16, "1e+16"), (5e-324, "4.94065645841e-324"),
        ("x,y", "x,y"), ("", ""), (None, "None"),
    ])
    def test_cells_render_as_before(self, cell, text):
        assert fmt(cell) == text


class TestWriters:
    """``write_csv`` and ``write_json`` write the bytes of the plain
    ``csv.writer`` + ``fmt`` loop and of ``json.dumps(obj, indent=2)``."""

    @staticmethod
    def written(write, *args) -> str:
        """The text ``write`` hands to ``write_atomic``."""
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("orbitrans.cli.write_atomic", lambda path, data: got.append(data))
            write(Path("unused"), *args)
        return got[0]

    @settings(max_examples=150, deadline=None)
    @given(doc=gdd_documents())
    def test_gdd_documents(self, doc):
        assert self.written(write_json, doc) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(obj=st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                            | st.tuples(inner, inner)
                            | st.dictionaries(st.text(max_size=3) | st.integers() | FLOATS | st.booleans()
                                              | st.none(), inner, max_size=4), max_leaves=30))
    def test_any_json_value(self, obj):
        assert self.written(write_json, obj) == json.dumps(obj, indent=2) + "\n"

    def test_unencodable_value_still_raises(self):
        for obj in ({"a": [np.int64(1)]}, [{(1, 2): 3}, {"b": 1}]):
            with pytest.raises(TypeError):
                self.written(write_json, obj)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(
        st.sampled_from(("a,b", '"q"', "x\ny", "", " s ", "plain")) | st.integers() | st.booleans()
        | FLOATS | st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64)
        | FLOATS.map(np.float64) | st.booleans().map(np.bool_) | st.none(), max_size=5), max_size=6))
    def test_csv_cells(self, rows):
        assert self.written(write_csv, ("node", "a,b"), rows) == reference_csv(("node", "a,b"), rows)

    def test_float_matrices_and_fr_rows(self):
        rng = np.random.default_rng(60)
        values = rng.random((11, 11)) / rng.integers(1, 10**6, size=(11, 11))
        rows = [[a + 1, *row] for a, row in enumerate(values)]
        fr = [["a,b", 0, 3], ['"q"', 12, 0], ["n3", 2**40, 1]]
        for table in (rows, [list(r) for r in values.tolist()], fr):
            assert self.written(write_csv, ("orbit", "v"), table) == reference_csv(("orbit", "v"), table)


class TestUnwritableOut:
    """An --out below a regular file cannot be created."""

    @pytest.fixture
    def blocked(self, toy_run):
        manifest, _out = toy_run
        (manifest.parent / "afile").write_text("")
        return manifest, manifest.parent / "afile" / "sub"

    @pytest.mark.parametrize("argv", [["compare"], ["compare", "--metric", "gda"]])
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
        ("transitions", "transitions.meta.json"), ("cluster", "cluster.tree.json"),
        ("stats", "snapshots.meta.json"), ("census", "snapshots.meta.json"),
        ("transitions", "snapshots.meta.json"),
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

    @pytest.mark.parametrize("command, target", [
        ("stats", "stats.csv"), ("census", "snapshots.meta.json"),
        ("transitions", "transitions.meta.json"), ("motifs", "motifs.meta.json"),
    ])
    def test_network_errors_printed_before_a_run_file_error(self, tmp_path, capsys, command, target):
        # a failed run-level write still exits 2, but only after every network's error
        write_network(tmp_path, "good", "a b 0\nb c 5\nc a 12\n")
        (tmp_path / "bad.txt").write_text("x y notatime\n")
        manifest = write_manifest(
            tmp_path,
            "[settings]\nwidth = 10\ncount = 2\nreplicates = 2\n\n"
            "[good]\npath = good.txt\n\n[bad]\npath = bad.txt\n",
        )
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)
        assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 2, errors
        assert errors[0].startswith("error: network 'bad': ")
        assert errors[0].endswith("line 1: timestamp 'notatime' is not an integer")
        assert errors[1] == f"error: cannot write {out / target}: Is a directory"

    @pytest.mark.parametrize("command", ["stats", "census", "transitions", "motifs"])
    def test_per_network_writers_exit_1(self, blocked, capsys, command):
        manifest, out = blocked
        assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for name in ("densify", "churn"):
            assert f"error: network '{name}': cannot write {out / name}." in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("command, first", [
        ("stats", "stats.csv"), ("census", "snap0.fr.csv"), ("transitions", "transitions.csv"),
    ])
    def test_directory_in_place_of_a_network_file_exits_1(self, toy_run, capsys, command, first):
        # the file is named, not the temporary file beside it, and the other network runs
        manifest, out = toy_run
        target = out / f"densify.{first}"
        target.mkdir(parents=True)
        argv = [command, "--manifest", str(manifest), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: network 'densify': cannot write {target}: Is a directory\n" in err
        assert "Traceback" not in err
        assert list(out.glob("*.tmp")) == []
        assert (out / f"churn.{first}").is_file()
        assert main(argv) == 1
        assert capsys.readouterr().err == err


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

    def test_manifest_not_utf8(self, tmp_path, capsys):
        write_network(tmp_path, "n", "a b 1\n")
        manifest = tmp_path / "manifest.ini"
        manifest.write_bytes(b"[zo\xeb]\npath = n.txt\n")
        assert main(["stats", "--manifest", str(manifest), "--out", "o"]) == 2
        assert capsys.readouterr().err.startswith(f"error: manifest {manifest}: 'utf-8' codec "
                                                  "can't decode byte 0xeb")

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

    @pytest.mark.parametrize("where", ["settings", "flag"])
    def test_negative_seed(self, tmp_path, capsys, where):
        # located and raised before any network loads, not once per network
        write_network(tmp_path, "n", "a b 1\nb c 2\nc a 3\n")
        settings = "[settings]\nseed = -3\n\n" if where == "settings" else ""
        manifest = write_manifest(tmp_path, f"{settings}[x]\npath = n.txt\n\n[y]\npath = n.txt\n")
        flags = ["--seed", "-1"] if where == "flag" else []
        located = (f"manifest {manifest} [settings]: seed = -3" if where == "settings"
                   else "--seed = -1")
        out = tmp_path / "o"
        for argv in (["motifs"], ["compare", "--metric", "motif"]):
            assert main([*argv, "--manifest", str(manifest), "--out", str(out), *flags]) == 2
            assert capsys.readouterr().err == f"error: {located} must be at least 0\n"
            assert not out.exists()

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
        for command in ("stats", "compare"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: orbitrans {command} [-h] --manifest MANIFEST ")
            assert err.endswith(
                f"orbitrans {command}: error: the following arguments are required: --manifest\n")


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


def child(*argv: str, shell: Sequence[str] = (), env: dict[str, str] | None = None
          ) -> subprocess.CompletedProcess:
    """A fresh interpreter run on ``argv`` (through the ``shell`` command
    prefix, if given) with this orbitrans importable, stdout and stderr
    piped, ``PYTHONUNBUFFERED`` unset, so a stream reaches the pipe only
    where the process flushes it, and ``env`` added to the environment."""
    src = str(Path(orbitrans.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"} | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([*shell, sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


class TestProcessEntryPoint:
    """``python -m orbitrans`` ends through ``cli.run``: flushed streams, then ``os._exit``."""

    def test_child_writes_what_main_writes(self, tmp_path, capsys):
        args = ["transitions", "--manifest", str(DATA / "manifest.ini"), "--out"]
        assert main([*args, str(tmp_path / "main")]) == 0
        proc = child("-m", "orbitrans", *args, str(tmp_path / "child"))
        assert proc.returncode == 0
        err = capsys.readouterr().err
        assert err.count("events read") == 2
        assert proc.stderr == err
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert sorted(p.name for p in (tmp_path / "child").iterdir()) == names
        for name in names:
            assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()

    def test_failed_network_exits_1(self, tmp_path):
        target = tmp_path / "alpha.transitions.csv"
        target.mkdir()
        proc = child("-m", "orbitrans", "transitions", "--manifest", str(DATA / "manifest.ini"),
                     "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"error: network 'alpha': cannot write {target}: Is a directory\n")

    def test_configuration_error_exits_2(self, tmp_path):
        missing = tmp_path / "nope.ini"
        proc = child("-m", "orbitrans", "stats", "--manifest", str(missing), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot read manifest {missing}: ")

    def test_run_flushes_what_main_left_buffered(self):
        # neither line ends in a newline, so line buffering has not sent it
        code = ("import sys\nfrom orbitrans import cli\n"
                "cli.main = lambda: print('out', end='') or print('err', end='', file=sys.stderr) or 3\n"
                "cli.run()\n")
        proc = child("-c", code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "out", "err")

    def test_stdout_closed_at_start_up(self, tmp_path):
        # sys.stdout is None then, and there is nothing to flush
        proc = child("-m", "orbitrans", "transitions", "--manifest", str(DATA / "manifest.ini"),
                     "--out", str(tmp_path), shell=("sh", "-c", '"$@" >&-', "sh"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("events read") == 2

    def test_version_leaves_through_argparse(self):
        proc = child("-m", "orbitrans", "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"orbitrans {orbitrans.__version__}\n", "")


class TestModuleLoading:
    @staticmethod
    def loaded_after(*argvs: list[str]) -> list[str]:
        """The orbitrans modules, and numpy and numpy.ma if loaded, once a fresh interpreter
        (one no other test has loaded a module in) has run each of ``argvs``."""
        code = "import sys\nfrom orbitrans.cli import main\n"
        code += "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
        code += ("print(' '.join(sorted(m for m in sys.modules"
                 " if m.startswith('orbitrans') or m in ('numpy', 'numpy.ma'))))\n")
        proc = child("-c", code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_stats_and_census_load_only_their_modules(self, tmp_path):
        # stats reads the 3-node census for the clustering coefficient
        args = ["--manifest", str(DATA / "manifest.ini"), "--out", str(tmp_path)]
        assert self.loaded_after(["stats", *args], ["census", *args]) == [
            "numpy", "orbitrans", "orbitrans.catalogue", "orbitrans.census", "orbitrans.cli",
            "orbitrans.graph_core"]

    def test_series_commands_in_one_out_load_no_numpy_ma(self, tmp_path):
        # np.unique, np.isin and np.setdiff1d would load numpy.ma, 10-30 ms per child:
        # neither binning the series nor reading it back calls them
        args = ["--manifest", str(DATA / "manifest.ini"), "--out", str(tmp_path)]
        assert self.loaded_after(["stats", *args], ["census", *args], ["transitions", *args]) == [
            "numpy", "orbitrans", "orbitrans.catalogue", "orbitrans.census", "orbitrans.cli",
            "orbitrans.graph_core", "orbitrans.metrics", "orbitrans.transitions"]

    def test_cluster_runs_without_numpy(self, tmp_path):
        matrix = tmp_path / "compare_ota.csv"
        matrix.write_text("network,a,b,c\na,1,0.5,0.2\nb,0.5,1,0.3\nc,0.2,0.3,1\n")
        argv = ["cluster", "--matrix", str(matrix), "--out", str(tmp_path)]
        assert self.loaded_after(argv) == ["orbitrans", "orbitrans.catalogue", "orbitrans.cli",
                                           "orbitrans.metrics"]
        assert json.loads((tmp_path / "cluster.tree.json").read_text()) == hierarchical_cluster(
            *read_similarity_csv(matrix))

    def test_compare_motif_on_stored_counts_loads_only_metrics(self, tmp_path):
        manifest = ["--manifest", str(DATA / "manifest.ini")]
        stored, fresh = tmp_path / "stored", tmp_path / "fresh"
        assert main(["motifs", *manifest, "--out", str(stored)]) == 0
        compare = ["compare", "--metric", "motif", *manifest]
        # the fingerprint's norm is pure Python: no numpy, parser, census or null model
        assert self.loaded_after([*compare, "--out", str(stored)]) == [
            "orbitrans", "orbitrans.catalogue", "orbitrans.cli", "orbitrans.metrics"]
        assert main([*compare, "--out", str(fresh)]) == 0
        for name in ("compare_motif.csv", "compare_motif.tree.json", "compare_motif.meta.json"):
            assert (stored / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_compare_gda_on_stored_census_loads_only_metrics(self, tmp_path):
        manifest = ["--manifest", str(DATA / "manifest.ini")]
        stored, fresh = tmp_path / "stored", tmp_path / "fresh"
        assert main(["motifs", *manifest, "--out", str(stored)]) == 0
        compare = ["compare", "--metric", "gda", *manifest]
        # the stored census is normalized in pure Python: no numpy, parser or census
        assert self.loaded_after([*compare, "--out", str(stored)]) == [
            "orbitrans", "orbitrans.catalogue", "orbitrans.cli", "orbitrans.metrics"]
        assert main([*compare, "--out", str(fresh)]) == 0
        for name in ("compare_gda.csv", "compare_gda.tree.json", "compare_gda.meta.json"):
            assert (stored / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_compare_ota_on_stored_counts_runs_without_numpy(self, tmp_path):
        manifest = ["--manifest", str(DATA / "manifest.ini")]
        stored, fresh = tmp_path / "stored", tmp_path / "fresh"
        assert main(["transitions", *manifest, "--out", str(stored)]) == 0
        compare = ["compare", "--metric", "ota", *manifest]
        assert self.loaded_after([*compare, "--out", str(stored)]) == [
            "orbitrans", "orbitrans.catalogue", "orbitrans.cli", "orbitrans.metrics"]
        # with no stored counts in its --out, compare computes them, with numpy
        assert main([*compare, "--out", str(fresh)]) == 0
        for name in ("compare_ota.csv", "compare_ota.tree.json", "compare_ota.meta.json"):
            assert (stored / name).read_bytes() == (fresh / name).read_bytes(), name


class TestUtf8Files:
    def test_ascii_locale_child_writes_what_main_writes(self, tmp_path):
        # an ASCII locale, with neither locale coercion nor UTF-8 mode to mask it
        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
        (tmp_path / "a.txt").write_bytes("Zoë Ana 0\nAna Björn 1\nBjörn Zoë 2\nAna Chloé 3\n".encode())
        (tmp_path / "b.txt").write_bytes("Zoë Ana 0\nAna Björn 1\nBjörn Eli 2\nEli Zoë 3\n".encode())
        sections = "[settings]\nwidth = 2\ncount = 2\n\n[{}]\npath = a.txt\n\n[{}]\npath = b.txt\n"
        # a network's name is the stem of its census files, which an ASCII
        # file-system encoding cannot hold, so census runs on ASCII names
        labels, names = tmp_path / "labels.ini", tmp_path / "names.ini"
        labels.write_bytes(sections.format("alpha", "beta").encode())
        names.write_bytes(sections.format("zoë", "chloé").encode())
        outs = {"main": tmp_path / "main", "child": tmp_path / "child"}
        for how, out in outs.items():
            for argv in (["census", "--manifest", str(labels)],
                         ["compare", "--metric", "gda", "--manifest", str(names)],
                         ["cluster", "--matrix", str(out / "compare_gda.csv")]):
                argv += ["--out", str(out)]
                if how == "main":
                    assert main(argv) == 0
                else:
                    proc = child("-X", "utf8=0", "-m", "orbitrans", *argv, env=ascii_locale)
                    assert proc.returncode == 0, proc.stderr
        files = sorted(p.name for p in outs["main"].iterdir())
        assert sorted(p.name for p in outs["child"].iterdir()) == files
        for name in files:
            assert (outs["child"] / name).read_bytes() == (outs["main"] / name).read_bytes(), name
        assert "Björn".encode() in (outs["child"] / "alpha.final.fr.csv").read_bytes()
        assert "network,zoë,chloé".encode() in (outs["child"] / "compare_gda.csv").read_bytes()


    @pytest.fixture
    def ascii_names(self, tmp_path):
        """An ASCII-locale environment, and a manifest whose network names it cannot encode."""
        (tmp_path / "a.txt").write_bytes(b"Zo Ana 0\nAna Bo 1\nBo Zo 2\nAna Cy 3\n")
        (tmp_path / "b.txt").write_bytes(b"Zo Ana 0\nAna Bo 1\nBo Eli 2\nEli Zo 3\n")
        names = tmp_path / "names.ini"
        names.write_bytes("[settings]\nwidth = 2\ncount = 2\nreplicates = 3\n\n"
                          "[zoë]\npath = a.txt\n\n[chloé]\npath = b.txt\n".encode())
        return {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}, names

    def test_ascii_locale_reuse_writes_what_a_fresh_run_writes(self, ascii_names, tmp_path):
        # the products are written under UTF-8; the ASCII child reads the stored
        # records, which live in the meta files, whose names it can encode
        env, names = ascii_names
        stored, fresh = tmp_path / "stored", tmp_path / "fresh"
        for command in ("transitions", "motifs"):
            assert main([command, "--manifest", str(names), "--out", str(stored)]) == 0
        for metric in ("ota", "motif"):
            runs = [child("-X", "utf8=0", "-m", "orbitrans", "compare", "--metric", metric,
                          "--manifest", str(names), "--out", str(out), env=env) for out in (stored, fresh)]
            assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
            assert runs[0].stderr == runs[1].stderr
            assert runs[0].stderr.count("events read") == 2
            for suffix in ("csv", "tree.json", "meta.json"):
                name = f"compare_{metric}.{suffix}"
                assert (stored / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_unencodable_network_file_named(self, ascii_names, tmp_path):
        env, names = ascii_names
        out = tmp_path / "out"
        proc = child("-X", "utf8=0", "-m", "orbitrans", "census", "--manifest", str(names),
                     "--out", str(out), env=env)
        assert proc.returncode == 1
        for name in (r"zo\xeb", r"chlo\xe9"):
            assert (f"error: network '{name}': cannot write {out}/{name}.snap0.fr.csv: the file name "
                    f"cannot be encoded in the file-system encoding (ascii)\n") in proc.stderr
        assert "Traceback" not in proc.stderr


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
            # bytes, not text: read_text() would read "\r\n" line ends as "\n"
            assert produced.read_bytes() == golden.read_bytes(), golden.name
        # cluster reads distances (the motif CSV's 0 diagonal) from agreements off
        # the matrix itself; OTA's cells, rounded to 12 digits, move its heights
        for metric in ("gda", "motif"):
            assert main(["cluster", "--matrix", str(GOLDEN / f"compare_{metric}.csv"),
                         "--out", str(tmp_path / metric)]) == 0
            tree = GOLDEN / f"compare_{metric}.tree.json"
            assert (tmp_path / metric / "cluster.tree.json").read_bytes() == tree.read_bytes(), metric

    @pytest.mark.parametrize("order", list(itertools.permutations(("stats", "census", "transitions"))),
                             ids="-".join)
    def test_every_order_of_the_series_commands_matches_golden(self, tmp_path, capsys, order):
        # the first command parses and stores the series, the other two read it back
        out, manifest = tmp_path / "out", str(DATA / "manifest.ini")
        errs = []
        for command in order:
            assert main([command, "--manifest", manifest, "--out", str(out)]) == 0
            errs.append(capsys.readouterr().err)
        assert errs == [errs[0]] * 3 and errs[0].count("events outside the snapshot window") == 2
        written = {p.name for p in out.iterdir()} - {"snapshots.meta.json", "transitions.meta.json"}
        assert written == {p.name for p in GOLDEN.iterdir()
                           if not p.name.startswith("compare_") and not p.name.endswith(".motifs.csv")}
        for name in written:
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        assert main(["transitions", "--manifest", manifest, "--out", str(tmp_path / "alone")]) == 0
        stored = (tmp_path / "alone" / "snapshots.meta.json").read_bytes()
        assert (out / "snapshots.meta.json").read_bytes() == stored

    def test_compare_ota_alone_matches_golden(self, tmp_path):
        # run_all's compare reads back the counts transitions wrote; with no
        # transitions product in --out, compare computes them and writes the same bytes
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(DATA / "manifest.ini"), "--out", str(out)]) == 0
        for name in ("compare_ota.csv", "compare_ota.tree.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_compare_motif_alone_matches_golden(self, tmp_path):
        # run_all's compare reads back the records motifs wrote; with no
        # motifs.meta.json in --out, compare computes them and writes the same bytes
        out = tmp_path / "out"
        assert main(["compare", "--metric", "motif", "--manifest", str(DATA / "manifest.ini"),
                     "--out", str(out)]) == 0
        for name in ("compare_motif.csv", "compare_motif.tree.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_compare_gda_alone_matches_golden(self, tmp_path):
        # run_all's GDA reads back the census motifs stored; here it computes it
        out = tmp_path / "out"
        assert main(["compare", "--metric", "gda", "--manifest", str(DATA / "manifest.ini"),
                     "--out", str(out)]) == 0
        for name in ("compare_gda.csv", "compare_gda.tree.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_rewritten_input_keeps_golden_bytes(self, tmp_path):
        # alpha's lines reversed, with CRLF line ends and one more comment line:
        # neither file depends on node ids, so this runs sorting, comments and
        # snapshot binning through main
        for name in ("beta.txt", "manifest.ini"):
            (tmp_path / name).write_bytes((DATA / name).read_bytes())
        lines = ["# reversed", *reversed((DATA / "alpha.txt").read_text().splitlines())]
        (tmp_path / "alpha.txt").write_bytes("".join(f"{line}\r\n" for line in lines).encode())
        out = tmp_path / "out"
        for command in ("stats", "transitions"):
            assert main([command, "--manifest", str(tmp_path / "manifest.ini"), "--out", str(out)]) == 0
        for name in ("alpha.stats.csv", "alpha.transitions.csv"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

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
    "--gdd-scaling": "plain", "--matrix-kind": "distance",
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
            "cluster": {"--out", "--matrix", "--linkage"},
        }

    @pytest.mark.parametrize("command, flag", [
        ("stats", "--seed"), ("census", "--seed"), ("transitions", "--seed"),
        ("motifs", "--policy"), ("motifs", "--width"), ("motifs", "--count"),
        ("cluster", "--manifest"), ("cluster", "--seed"), ("cluster", "--policy"),
        ("cluster", "--width"), ("cluster", "--count"), ("cluster", "--sep"),
        # the matrix's diagonal tells distances from agreements
        ("cluster", "--matrix-kind"),
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

    def test_default_section_is_an_error(self, tmp_path, capsys):
        # configparser would lend [DEFAULT]'s keys to every section, [settings] included,
        # so its width would outrank [settings]' and its seed would land in [a]
        write_network(tmp_path, "n", "a b 1\nb c 12\n")
        out = tmp_path / "o"
        for default in ("width = 3\n", "seed = 3\n", ""):
            manifest = write_manifest(
                tmp_path, f"[DEFAULT]\n{default}\n[settings]\nwidth = 10\ncount = 2\n\n[a]\npath = n.txt\n")
            assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: manifest {manifest} [DEFAULT]: defaults belong in [settings]\n"
        assert not out.exists()

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
        (["motifs"], "motifs", {"seed", "replicates", "swaps_per_edge"}, {
            "input_sha256", "events_read", "self_loops_dropped", "gdd", "ensemble_means"}),
        (["compare", "--metric", "ota"], "compare_ota",
         {"metric", "kind", "linkage", "ota_scaling", "relative_rescale"}, SNAPSHOT_KEYS),
        (["compare", "--metric", "gda"], "compare_gda",
         {"metric", "kind", "linkage", "gdd_scaling", "gda_include_k3"}, set()),
        (["compare", "--metric", "motif"], "compare_motif",
         {"metric", "kind", "linkage", "seed", "replicates", "swaps_per_edge"}, set()),
        (["transitions"], "transitions", set(), SNAPSHOT_KEYS | {
            "input_sha256", "events_read", "self_loops_dropped", "events_outside_window", "counts"}),
    ])
    def test_keys(self, toy_run, argv, name, keys, network_keys):
        manifest, out = toy_run
        assert main([*argv, "--manifest", str(manifest), "--out", str(out)]) == 0
        meta = json.loads((out / f"{name}.meta.json").read_text())
        assert set(meta) == {"tool_version", "k", "networks"} | keys
        kinds = {"compare_ota": "OTA", "compare_gda": "GDA", "compare_motif": "MotifDistance"}
        assert meta.get("kind") == kinds.get(name)
        assert list(meta["networks"]) == ["densify", "churn"]
        for entry in meta["networks"].values():
            assert set(entry) == {"path", "sep"} | network_keys
