import dataclasses
import itertools
import os
import re
import warnings

import numpy as np
import pytest

import test_nonseparable
from conftest import record_smo_batches, tiny_config, use_solver_cpus
from mexp import RunConfig, SynthSpec, classify, pipeline, rpca, synthesize_dataset
from mexp.classify import MulticlassModel, chi_square_distances, train_pairwise, vote
from mexp.dataset import DatasetIndex, VideoClip
from mexp.descriptor import extract_descriptor
from mexp.errors import ConfigError, DataError, NumericError
from mexp.pipeline import (
    EvaluationReport,
    batch_descriptors,
    compute_decomposition,
    compute_descriptor,
    compute_descriptors,
    emit_report,
    parse_confusion_csv,
    run_loso,
    train_full,
)
from mexp.selection import default_p_grid, fit_selection, pairwise_group_distances


def report_signature(report):
    rows = []
    for fold in report.folds:
        rows.append((fold.subject, tuple(fold.clip_ids), tuple(fold.predictions)))
    return report.accuracy, report.confusion.tolist(), rows


class TestRunLoso:
    def test_selection_all_groups_identical_to_off(self, tiny_dataset):
        index, clips = tiny_dataset
        base = run_loso(tiny_config(selection="off", seed=3), index, clips)
        full_p = tiny_config(selection="on", selection_p=16, seed=3)
        selected = run_loso(full_p, index, clips)
        assert report_signature(base) == report_signature(selected)
        assert [f.penalty for f in base.folds] == [f.penalty for f in selected.folds]

    def test_accounting_identity(self, tiny_dataset):
        index, clips = tiny_dataset
        report = run_loso(tiny_config(seed=1), index, clips)
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()
        for i, c in enumerate(report.classes):
            n_true = sum(
                1 for e in index.entries if e.class_label == c
            )
            assert report.confusion[i].sum() == n_true

    def test_deterministic_reports(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        cfg = tiny_config(seed=5)
        a = run_loso(cfg, index, clips)
        b = run_loso(cfg, index, clips)
        assert report_signature(a) == report_signature(b)
        emit_report(a, tmp_path / "a")
        emit_report(b, tmp_path / "b")
        for name in ("confusion.csv", "predictions.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_metadata_records_decisions(self, tiny_dataset):
        index, clips = tiny_dataset
        report = run_loso(tiny_config(seed=0), index, clips)
        assert "decision.pair_enumeration" in report.metadata
        assert "chi2" in report.metadata["decision.kernel_form"]
        assert "unit step" in report.metadata["decision.threshold_rule"]
        assert report.metadata["config.mask_w"] == "5"

    def test_fold_structure_matches_subjects(self, tiny_dataset):
        index, clips = tiny_dataset
        report = run_loso(tiny_config(seed=0), index, clips)
        assert [f.subject for f in report.folds] == index.subjects
        for fold in report.folds:
            subjects = {
                e.subject_id for e in index.entries if e.clip_id in set(fold.clip_ids)
            }
            assert subjects == {fold.subject}

    @pytest.mark.parametrize("entry", [run_loso, train_full])
    def test_no_dataset_is_config_error(self, entry):
        with pytest.raises(ConfigError, match="no dataset path"):
            entry(tiny_config())

    def test_auto_p_selection_runs(self, tiny_dataset):
        index, clips = tiny_dataset
        cfg = tiny_config(selection="on", selection_p=0, seed=2)
        report = run_loso(cfg, index, clips)
        assert all(1 <= f.selected_p <= 16 for f in report.folds)

    def test_auto_p_ties_prefer_smallest_p(self, tiny_dataset):
        # every group count separates the tiny set, so all P tie in every fold
        index, clips = tiny_dataset
        cfg = tiny_config(selection="on", selection_p=0)
        report = run_loso(cfg, index, clips)
        smallest = default_p_grid(cfg.n_groups)[0]
        assert [f.selected_p for f in report.folds] == [smallest] * len(report.folds)


    @pytest.mark.parametrize(
        "overrides, per_fold",
        [({"selection": "off"}, 2), ({"selection": "on", "selection_p": 0}, 4)],
        ids=["selection off", "automatic P"],
    )
    def test_smo_batches_per_fold(self, tiny_dataset, monkeypatch, overrides, per_fold):
        # one batch per cross validation: the C search (with automatic P also
        # the P sweep and the C search at the chosen P), then the held-out fit
        index, clips = tiny_dataset
        calls = record_smo_batches(monkeypatch)
        report = run_loso(tiny_config(**overrides), index, clips)
        assert len(calls) == per_fold * len(report.folds)

    def test_training_set_without_a_class(self):
        # the first subject holds every clip of class 2, so its fold's ranking
        # names no pair of class 2, and those machines sum all groups
        spec = SynthSpec(
            n_subjects=3, n_classes=3, clips_per_subject_per_class=2,
            width=32, height=32, min_frames=6, max_frames=8, seed=5,
        )
        index, clips = synthesize_dataset(spec)
        with pytest.warns(UserWarning, match="class 2 has 2 clip"):
            index = DatasetIndex(
                [e for e in index.entries if e.class_label != 2 or e.subject_id == "s00"]
            )
        cfg = tiny_config(selection="on", selection_p=4, c_grid=(2.0,))
        first, *_ = run_loso(cfg, index, clips).folds
        assert first.subject == "s00" and 2 in first.truths
        assert 2 not in first.predictions  # its one-class machines vote against it


class TestHeldOutPrediction:
    @pytest.mark.parametrize("overrides", [{}, {"selection": "on", "selection_p": 5}])
    def test_tensor_path_matches_support_vector_models(self, overrides):
        # every fold's predictions equal those of support-vector models fitted
        # on the fold's training clips with the fold's C and selected groups
        spec = SynthSpec(
            n_subjects=3, n_classes=3, clips_per_subject_per_class=2,
            width=32, height=32, min_frames=6, max_frames=8,
            noise_amplitude=8.0, motion_amplitude=12.0, seed=5,
        )
        index, clips = synthesize_dataset(spec)
        cfg = tiny_config(seed=1, **overrides)
        report = run_loso(cfg, index, clips)
        descriptors, _ = compute_descriptors(cfg, index, clips)
        by_id = {d.clip_id: d for d in descriptors}
        labels = np.array([e.class_label for e in index.entries])
        distances = pairwise_group_distances(descriptors)
        for fold in report.folds:
            train = np.array(
                [i for i, e in enumerate(index.entries) if e.subject_id != fold.subject]
            )
            selected = None
            if fold.selected_p:
                selected = fit_selection(distances[np.ix_(train, train)], labels[train])
            machines = []
            for a, b in itertools.combinations(report.classes, 2):
                sub = train[np.isin(labels[train], [a, b])]
                groups = (
                    np.sort(selected[(a, b)].ranking[: fold.selected_p])
                    if selected else None
                )
                view = distances[:, :, groups] if selected else distances
                machines.append(
                    train_pairwise(
                        np.stack([descriptors[i].selected(groups) for i in sub]),
                        labels[sub], (a, b), fold.penalty, gamma=cfg.gamma,
                        selected_groups=groups,
                        gram_distances=view[np.ix_(sub, sub)].sum(axis=2),
                    )
                )
            model = MulticlassModel(machines, report.classes, cfg.fingerprint())
            expected = model.predict([by_id[c] for c in fold.clip_ids])
            assert fold.predictions == expected.tolist()


class TestDescriptorCache:
    def test_cache_hits_and_bit_identity(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        cfg = tiny_config(cache_dir=str(tmp_path / "cache"))
        cold, hits_cold = compute_descriptors(cfg, index, clips)
        warm, hits_warm = compute_descriptors(cfg, index, clips)
        assert hits_cold == 0
        assert hits_warm == len(index.entries)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.histogram, b.histogram)
            assert a.fingerprint == b.fingerprint

    def test_cache_keyed_by_config(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        clip = clips[index.entries[0].clip_id]
        cfg_a = tiny_config(cache_dir=str(tmp_path / "c"))
        cfg_b = tiny_config(cache_dir=str(tmp_path / "c"), temporal_length=11)
        compute_descriptor(clip, cfg_a)
        _, hit = compute_descriptor(clip, cfg_b)
        assert not hit

    def test_entry_without_convergence_record_is_rewritten(self, tiny_dataset, tmp_path):
        # the format of earlier versions: the histogram alone
        index, clips = tiny_dataset
        clip = clips[index.entries[0].clip_id]
        cfg = tiny_config(cache_dir=str(tmp_path / "cache"))
        fresh, _ = compute_descriptor(clip, cfg)
        (path,) = (tmp_path / "cache" / "desc").glob("*.npz")
        np.savez(path, concat=fresh.histogram)
        again, hit = compute_descriptor(clip, cfg)
        assert not hit
        assert again.histogram.tobytes() == fresh.histogram.tobytes()
        with np.load(path) as z:
            assert sorted(z.files) == ["concat", "converged", "iterations", "residual"]
            assert bool(z["converged"])
        assert compute_descriptor(clip, cfg)[1]

    def test_descriptors_carry_run_fingerprint(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        clip = clips[index.entries[0].clip_id]
        cfg = tiny_config(cache_dir=str(tmp_path / "cache"))
        for expect_hit in (False, True):
            desc, hit = compute_descriptor(clip, cfg)
            assert hit == expect_hit
            assert desc.fingerprint == cfg.fingerprint()
        (path,) = (tmp_path / "cache" / "desc").glob("*.npz")
        assert path.name == f"{clip.content_hash()}-{cfg.fingerprint()}.npz"

    def test_environment_variable_overrides_cache_dir(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        index, clips = tiny_dataset
        monkeypatch.setenv("MEXP_CACHE_DIR", str(tmp_path / "env_cache"))
        cfg = tiny_config()  # no cache_dir configured
        compute_descriptors(cfg, index, clips)
        _, hits = compute_descriptors(cfg, index, clips)
        assert hits == len(index.entries)
        assert (tmp_path / "env_cache" / "desc").is_dir()


class TestRpcaNonConvergence:
    def test_warns_when_solved_and_when_cached(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        clip = clips[index.entries[0].clip_id]
        cache = tmp_path / "cache"
        cfg = tiny_config(rpca_max_iter=3, cache_dir=str(cache))
        for expect_hit in (False, True):  # solved and written, then read from desc/
            with pytest.warns(RuntimeWarning, match=repr(clip.clip_id)) as caught:
                _, hit = compute_descriptor(clip, cfg)
            assert hit == expect_hit
            assert len(caught) == 1 and "in 3 iterations" in str(caught[0].message)
        assert len(list((cache / "desc").glob("*.npz"))) == 1
        assert not (cache / "rpca").exists()

    def test_converged_is_quiet(self, tiny_dataset):
        index, clips = tiny_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compute_decomposition(
                clips[index.entries[0].clip_id], tiny_config()
            ).converged

    def test_loso_warns_per_clip_and_report_is_unchanged(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        cfg = tiny_config(rpca_max_iter=3)
        for name in ("a", "b"):
            with pytest.warns(RuntimeWarning) as caught:
                emit_report(run_loso(cfg, index, clips), tmp_path / name)
            text = "\n".join(str(w.message) for w in caught)
            assert all(repr(e.clip_id) in text for e in index.entries)
        summary = (tmp_path / "a" / "summary.txt").read_bytes()
        assert summary == (tmp_path / "b" / "summary.txt").read_bytes()
        assert b"converge" not in summary

    def test_warm_loso_warns_once_per_clip(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        cfg = tiny_config(rpca_max_iter=3, cache_dir=str(tmp_path / "cache"))
        for name in ("cold", "warm"):
            with pytest.warns(RuntimeWarning) as caught:
                emit_report(run_loso(cfg, index, clips), tmp_path / name)
            pattern = re.compile(r"clip '([^']+)': RPCA did not converge")
            warned = sorted(
                m.group(1) for w in caught if (m := pattern.match(str(w.message)))
            )
            assert warned == sorted(e.clip_id for e in index.entries)
        with pytest.warns(RuntimeWarning):
            assert compute_descriptors(cfg, index, clips)[1] == len(index.entries)
        summary = (tmp_path / "cold" / "summary.txt").read_bytes()
        assert summary == (tmp_path / "warm" / "summary.txt").read_bytes()


class TestSolverPool:
    """Cache misses solved in a fork pool: the same descriptors, cache
    entries, hit counts, warnings and errors as solved inline."""

    @pytest.mark.parametrize("projection", ["improved", "original"])
    def test_pool_equals_inline(self, tiny_dataset, tmp_path, monkeypatch, projection):
        index, clips = tiny_dataset
        routes = []
        for cpus in (1, 2):
            use_solver_cpus(monkeypatch, cpus)
            cache = tmp_path / f"cpus{cpus}"
            cfg = tiny_config(projection=projection, cache_dir=str(cache))
            cold = compute_descriptors(cfg, index, clips)
            warm = compute_descriptors(cfg, index, clips)
            entries = {}
            for path in sorted((cache / "desc").glob("*.npz")):
                with np.load(path) as z:
                    entries[path.name] = {name: z[name] for name in z.files}
            routes.append((cold, warm, entries))
        (inline_cold, inline_warm, inline_entries), (cold, warm, entries) = routes
        assert (cold[1], warm[1]) == (inline_cold[1], inline_warm[1]) == (0, len(clips))
        for a, b in zip(inline_cold[0] + inline_warm[0], cold[0] + warm[0]):
            assert (a.clip_id, a.fingerprint) == (b.clip_id, b.fingerprint)
            assert a.histogram.tobytes() == b.histogram.tobytes()
        assert list(entries) == list(inline_entries) and len(entries) == len(clips)
        for name, arrays in entries.items():
            assert arrays.keys() == inline_entries[name].keys()
            for key, a in inline_entries[name].items():
                assert a.dtype == arrays[key].dtype
                assert a.tobytes() == arrays[key].tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_duplicate_content_is_solved_once(
        self, tiny_dataset, tmp_path, monkeypatch, cpus
    ):
        index, clips = tiny_dataset
        use_solver_cpus(monkeypatch, cpus)
        tasks, task_results = [], pipeline._task_results

        def recorded(fn, shared, n):
            tasks.append(n)
            return task_results(fn, shared, n)

        monkeypatch.setattr(pipeline, "_task_results", recorded)
        first = [clips[e.clip_id] for e in index.entries[:3]]
        twin = dataclasses.replace(first[0], clip_id="twin")
        cfg = tiny_config(cache_dir=str(tmp_path / "cache"))
        descriptors, hits = batch_descriptors(cfg, [*first, twin])
        # the twin reads its entry as a hit, as it did when clips were solved one by one
        assert (tasks, hits) == ([3], 1)
        assert [d.clip_id for d in descriptors] == [c.clip_id for c in first] + ["twin"]
        assert descriptors[-1].histogram.tobytes() == descriptors[0].histogram.tobytes()
        assert len(list((tmp_path / "cache" / "desc").glob("*.npz"))) == 3

    def test_worker_exception_reaches_the_caller(self, tiny_dataset, tmp_path, monkeypatch):
        index, clips = tiny_dataset
        use_solver_cpus(monkeypatch, 2)
        parent, solve = os.getpid(), rpca.decompose_clip
        third = clips[index.entries[2].clip_id].frames

        def fail_in_a_worker(frames, cfg):  # forked workers inherit the patch
            if os.getpid() != parent and np.array_equal(frames, third):
                raise NumericError("RPCA failed on the third clip")
            return solve(frames, cfg)

        monkeypatch.setattr(rpca, "decompose_clip", fail_in_a_worker)
        cfg = tiny_config(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(NumericError) as caught:
            compute_descriptors(cfg, index, clips)
        assert type(caught.value) is NumericError
        assert str(caught.value) == "RPCA failed on the third clip"
        # the clips before it were written, as they were one by one
        assert len(list((tmp_path / "cache" / "desc").glob("*.npz"))) == 2

    def test_nonconverged_clips_warn_once_in_index_order(self, tiny_dataset, monkeypatch):
        index, clips = tiny_dataset
        use_solver_cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compute_descriptors(tiny_config(rpca_max_iter=3), index, clips)
        pattern = re.compile(r"clip '([^']+)': RPCA did not converge in 3 iterations")
        warned = [
            m.group(1) for w in caught
            if w.category is RuntimeWarning and (m := pattern.match(str(w.message)))
        ]
        assert warned == [e.clip_id for e in index.entries]


def count_forks(monkeypatch) -> list:
    """Wrap `os.fork` for one test; returns the list of the children it
    started in this process."""
    children, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


@pytest.fixture(scope="module")
def nonseparable_dataset():
    """The set of `tests/test_nonseparable.py`, where no mode scores 1.0."""
    return synthesize_dataset(test_nonseparable.SPEC)


class TestFoldPool:
    """LOSO folds run in the fork pool: the same reports, warnings and
    errors as run inline."""

    @pytest.mark.parametrize(
        "overrides",
        [{"selection": "off"}, {"selection": "on", "selection_p": 2}, {"selection": "on"}],
        ids=["selection off", "fixed P", "automatic P"],
    )
    @pytest.mark.parametrize("data", ["tiny", "nonseparable"])
    def test_reports_equal_inline(
        self, tiny_dataset, nonseparable_dataset, tmp_path, monkeypatch, overrides, data
    ):
        if data == "tiny":
            (index, clips), cfg = tiny_dataset, tiny_config(seed=4, **overrides)
        else:  # original projections: no RPCA, and accuracy below 1.0
            index, clips = nonseparable_dataset
            cfg = RunConfig(blocks_m=4, blocks_n=2, projection="original", **overrides)
        cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "cache"))
        compute_descriptors(cfg, index, clips)  # warm: the folds alone fork
        children = count_forks(monkeypatch)
        texts = []
        for cpus in (1, 2):
            use_solver_cpus(monkeypatch, cpus)
            report = run_loso(cfg, index, clips)
            paths = emit_report(report, tmp_path / f"cpus{cpus}")
            texts.append({name: path.read_bytes() for name, path in paths.items()})
            assert len(children) == (0 if cpus == 1 else 2)
        assert texts[0] == texts[1]
        if data == "nonseparable":
            assert report.accuracy < 1.0

    @pytest.mark.parametrize("failing", [{2}, {1, 2}])
    def test_first_failing_fold_raises_its_error(self, tiny_dataset, monkeypatch, failing):
        index, clips = tiny_dataset
        cfg = tiny_config()
        use_solver_cpus(monkeypatch, 2)
        parent, fit_fold = os.getpid(), pipeline._fit_fold

        def fail_in_a_worker(cfg, distances, labels, classes, train_idx, seed):
            fold = seed - cfg.seed * 1000003
            if os.getpid() != parent and fold in failing:
                raise (ConfigError if fold == 1 else DataError)(f"fold {fold} failed")
            return fit_fold(cfg, distances, labels, classes, train_idx, seed)

        monkeypatch.setattr(pipeline, "_fit_fold", fail_in_a_worker)
        first = min(failing)
        with pytest.raises(ValueError) as caught:
            run_loso(cfg, index, clips)
        assert type(caught.value) is (ConfigError if first == 1 else DataError)
        assert str(caught.value) == f"fold {first} failed"

    def test_warnings_reach_the_parent_once_in_fold_order(self, tiny_dataset, monkeypatch):
        index, clips = tiny_dataset
        cfg = tiny_config(seed=2)
        cv_folds, solve = classify.cv_folds, classify.smo_solve_batch

        def announced(labels, classes, seed):
            warnings.warn(f"cross validation at seed {seed}", UserWarning)
            return cv_folds(labels, classes, seed)

        def capped(K, y, c, tol=1e-3, max_pair_updates=10**6):  # the real cap warning
            return solve(K, y, c, tol, max_pair_updates=1)

        monkeypatch.setattr(classify, "cv_folds", announced)
        monkeypatch.setattr(classify, "smo_solve_batch", capped)
        routes = []
        for cpus in (1, 2):
            use_solver_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_loso(cfg, index, clips)
            routes.append(
                [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
            )
        assert routes[0] == routes[1]
        seeds = [m for _, m, *_ in routes[1] if m.startswith("cross validation")]
        assert seeds == [f"cross validation at seed {2 * 1000003 + k}" for k in range(3)]
        assert any(m.startswith("SMO stopped at the update cap") for _, m, *_ in routes[1])
        # a warning made an error is raised in the parent, as inline
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match=f"seed {2 * 1000003}$"):
                run_loso(cfg, index, clips)

    def test_a_repeated_warning_shows_once_under_the_default_filter(self, monkeypatch):
        def warn_twice(shared, k):
            for _ in range(2):
                warnings.warn(shared, UserWarning)

        shown = []
        for cpus in (1, 2):
            use_solver_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                list(pipeline._task_results(warn_twice, "the same text", 2))
            shown.append([str(w.message) for w in caught])
        assert shown == [["the same text"]] * 2

    def test_a_failing_task_warns_before_it_raises(self, monkeypatch):
        def warn_then_fail(shared, k):
            warnings.warn(f"task {k}", UserWarning)
            if k == 1:
                raise DataError("task 1 failed")

        shown = []
        for cpus in (1, 2):
            use_solver_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DataError, match="^task 1 failed$"):
                    list(pipeline._task_results(warn_then_fail, None, 3))
            shown.append([str(w.message) for w in caught])
        assert shown == [["task 0", "task 1"]] * 2

    def test_one_fold_or_one_worker_starts_no_process(self, tiny_dataset, monkeypatch):
        index, clips = tiny_dataset
        cfg = tiny_config()
        children = count_forks(monkeypatch)
        use_solver_cpus(monkeypatch, 1)
        run_loso(cfg, index, clips)
        use_solver_cpus(monkeypatch, 2)
        assert list(pipeline._task_results(pipeline._loso_fold, None, 0)) == []
        shared = ("fold", "tasks")
        assert list(pipeline._task_results(lambda s, k: s[k], shared, 1)) == ["fold"]
        assert children == []


@pytest.mark.parametrize(
    "cpus, env, misses, workers",
    [
        (2, {}, 24, 1),  # OpenBLAS defaults to one thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 24, 2),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 0, 1),
        (8, {"OMP_NUM_THREADS": "2"}, 24, 4),
        (8, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 24, 2),
        (8, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2,1"}, 3, 3),
        (8, {"OPENBLAS_NUM_THREADS": "many"}, 24, 1),
        (2, {"OMP_NUM_THREADS": "4"}, 24, 1),
    ],
)
def test_worker_count_is_cpus_over_blas_threads(monkeypatch, cpus, env, misses, workers):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert pipeline._worker_count(misses) == workers


class TestEmitReport:
    def test_confusion_round_trip(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        report = run_loso(tiny_config(seed=0), index, clips)
        emit_report(report, tmp_path)
        text = (tmp_path / "confusion.csv").read_text()
        np.testing.assert_array_equal(parse_confusion_csv(text), report.confusion)
        header = text.splitlines()[0].split(",")
        assert len(header) == len(report.classes) + 1

    def test_zero_total_rejected(self, tmp_path):
        empty = EvaluationReport(
            classes=[0, 1],
            class_names={0: "a", 1: "b"},
            folds=[],
            confusion=np.zeros((2, 2), dtype=np.int64),
            accuracy=0.0,
            per_class_recall={0: 0.0, 1: 0.0},
        )
        with pytest.raises(DataError):
            emit_report(empty, tmp_path)

    def test_predictions_csv_lists_every_clip(self, tiny_dataset, tmp_path):
        index, clips = tiny_dataset
        report = run_loso(tiny_config(seed=0), index, clips)
        emit_report(report, tmp_path)
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "clip_id,subject,truth,predicted"
        assert len(lines) - 1 == len(index.entries)


class TestTrainFull:
    def test_model_predicts_training_clips(self, tiny_dataset):
        index, clips = tiny_dataset
        cfg = tiny_config(seed=0)
        model = train_full(cfg, index, clips)
        assert len(model.machines) == 1  # 2 classes -> one pairwise machine
        descriptors, _ = compute_descriptors(cfg, index, clips)
        labels = [e.class_label for e in index.entries]
        assert (model.predict(descriptors) == labels).mean() >= 0.9

    def test_fingerprint_mismatch_rejected(self, tiny_dataset):
        index, clips = tiny_dataset
        cfg = tiny_config(seed=0)
        model = train_full(cfg, index, clips)
        other_cfg = tiny_config(temporal_length=11)
        descriptors, _ = compute_descriptors(other_cfg, index, clips)
        with pytest.raises(DataError):
            model.predict([descriptors[0]])

    @pytest.mark.parametrize("position", [0, 3, -1])
    def test_fingerprint_mismatch_anywhere_in_the_stack_rejected(
        self, tiny_dataset, position
    ):
        index, clips = tiny_dataset
        cfg = tiny_config(seed=0)
        model = train_full(cfg, index, clips)
        descriptors, _ = compute_descriptors(cfg, index, clips)
        descriptors[position] = dataclasses.replace(
            descriptors[position], fingerprint="other"
        )
        with pytest.raises(DataError, match="do not match model"):
            model.predict(descriptors)

    def test_one_class_model_labels_every_clip(self, tiny_dataset):
        index, clips = tiny_dataset
        cfg = tiny_config(seed=0)
        descriptors, _ = compute_descriptors(cfg, index, clips)
        model = MulticlassModel([], [3], cfg.fingerprint())  # no machines
        assert model.predict(descriptors).tolist() == [3] * len(descriptors)

    @pytest.mark.parametrize("overrides", [{}, {"selection": "on", "selection_p": 5}])
    def test_stack_matches_per_clip_oracle(self, overrides):
        # non-separable clips, so decisions of both signs and close votes
        spec = SynthSpec(
            n_subjects=3, n_classes=3, clips_per_subject_per_class=2,
            width=32, height=32, min_frames=6, max_frames=8,
            noise_amplitude=8.0, motion_amplitude=12.0, seed=5,
        )
        index, clips = synthesize_dataset(spec)
        cfg = tiny_config(seed=1, **overrides)
        model = train_full(cfg, index, clips)
        descriptors, _ = compute_descriptors(cfg, index, clips)
        labels = model.predict(descriptors)
        assert labels.shape == (len(descriptors),)
        per_clip = [{} for _ in descriptors]
        for m in model.machines:
            groups = m.selected_groups if m.selected_groups.size else None
            stacked = m.decision(np.stack([d.selected(groups) for d in descriptors]))
            tol = 1e-12 * (np.abs(m.dual_coef).sum() + abs(m.bias))
            for k, desc in enumerate(descriptors):  # one clip at a time
                x = desc.selected(groups)
                dist = chi_square_distances(x[None], m.support_vectors)[0]
                oracle = float(m.dual_coef @ np.exp(-dist / m.gamma) + m.bias)
                assert abs(stacked[k] - oracle) <= tol
                per_clip[k][(m.class_a, m.class_b)] = oracle
        assert labels.tolist() == [vote(one, model.classes) for one in per_clip]

    @pytest.mark.parametrize("projection", ["improved", "original"])
    def test_exported_extractor_shares_the_run_fingerprint(
        self, tiny_dataset, projection
    ):
        # descriptor.extract_descriptor, the cache path and the model agree
        index, clips = tiny_dataset
        cfg = tiny_config(projection=projection)
        model = train_full(cfg, index, clips)
        for entry in index.entries:
            clip = clips[entry.clip_id]
            dec = compute_decomposition(clip, cfg)
            desc = extract_descriptor(clip, dec, cfg.descriptor)
            assert desc.fingerprint == cfg.fingerprint()
            np.testing.assert_array_equal(
                desc.histogram, compute_descriptor(clip, cfg)[0].histogram
            )
            assert model.predict([desc])[0] in model.classes

    def test_one_machine_per_class_pair(self):
        from mexp import SynthSpec, synthesize_dataset

        spec = SynthSpec(
            n_subjects=2, n_classes=3, clips_per_subject_per_class=2,
            width=32, height=32, min_frames=6, max_frames=7,
            noise_amplitude=1.0, motion_amplitude=40.0, seed=17,
        )
        index, clips = synthesize_dataset(spec)
        model = train_full(tiny_config(seed=0), index, clips)
        assert len(model.machines) == 3  # K(K-1)/2 for K=3
        assert {(m.class_a, m.class_b) for m in model.machines} == {
            (0, 1), (0, 2), (1, 2),
        }


class TestLeakageGuards:
    def test_test_subject_content_cannot_change_other_folds(self, tiny_dataset):
        # replacing one subject's clips changes only folds that train on them;
        # the fold testing that subject keeps its training set, so the model
        # fitted there is byte-for-byte reproducible from train clips alone
        index, clips = tiny_dataset
        cfg = tiny_config(seed=4)
        base = run_loso(cfg, index, clips)
        target = index.subjects[0]
        rng = np.random.default_rng(99)
        clips2 = dict(clips)
        for e in index.entries:
            if e.subject_id == target:
                noise = rng.integers(0, 256, clips[e.clip_id].frames.shape)
                clips2[e.clip_id] = VideoClip(
                    noise.astype(np.float64), e.subject_id, e.class_label, e.clip_id
                )
        perturbed = run_loso(cfg, index, clips2)
        fold_a = next(f for f in base.folds if f.subject == target)
        fold_b = next(f for f in perturbed.folds if f.subject == target)
        assert fold_a.penalty == fold_b.penalty
        assert fold_a.selected_p == fold_b.selected_p
