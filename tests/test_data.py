import codecs
import re

import numpy as np
import pytest

from wavecnn.data import (AGES_MONTHS, EXCLUDED, HOLDOUT, RAW_LABELS, ManifestError,
                          Sample, TaskSpec, batches, builtin_tasks, get_task,
                          make_split, parse_manifest, write_manifest)

HEADER = "clip_path,raw_label,age_months,family_id"


def make_samples(n, labels=RAW_LABELS, families=("F01", "F02", "F03"), seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(f"clip_{i:04d}.f32",
                   labels[int(rng.integers(len(labels)))],
                   int(AGES_MONTHS[int(rng.integers(len(AGES_MONTHS)))]),
                   families[int(rng.integers(len(families)))])
            for i in range(n)]


class TestParseManifest:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na.wav,canonical,9,F03\n")
        samples = parse_manifest(path)
        assert len(samples) == 1
        s = samples[0]
        assert (s.raw_label, s.age_months, s.family_id) == ("canonical", 9, "F03")
        assert s.clip_path.endswith("a.wav")

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nsub/a.wav,ids,3,F01\n")
        assert parse_manifest(path)[0].clip_path == str(tmp_path / "sub/a.wav")

    def test_unknown_label_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na.wav,canonical,9,F03\nb.wav,crying,9,F03\n")
        with pytest.raises(ManifestError,
                           match=rf"^{re.escape(str(path))}:3: unknown raw_label 'crying'$"):
            parse_manifest(path)

    def test_unknown_age_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na.wav,ids,12,F03\n")
        with pytest.raises(ManifestError,
                           match=rf"^{re.escape(str(path))}:2: unknown age_months 12;"):
            parse_manifest(path)

    def test_duplicate_clip_path_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na.wav,ids,3,F01\na.wav,ads,3,F01\n")
        with pytest.raises(ManifestError,
                           match=rf"^{re.escape(str(path))}:3: duplicate clip_path 'a.wav'$"):
            parse_manifest(path)

    @pytest.mark.parametrize("twin", ["/d/sub//c.f32", "/d/sub/./c.f32", "//d/sub/c.f32",
                                      "/d/sub/x/../c.f32"],
                             ids=["double_slash", "dot", "leading_double_slash", "dot_dot"])
    def test_two_spellings_of_one_absolute_path_are_a_duplicate(self, tmp_path, twin):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\n/d/sub/c.f32,ids,3,F01\n{twin},ads,3,F01\n")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:3: "
                                                rf"duplicate clip_path {re.escape(repr(twin))}$"):
            parse_manifest(path)

    def test_symbolic_link_to_a_listed_clip_is_a_duplicate(self, tmp_path):
        (tmp_path / "c.f32").write_bytes(b"")
        (tmp_path / "link.f32").symlink_to("c.f32")
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nc.f32,ids,3,F01\nlink.f32,ads,3,F01\n")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:3: "
                                                r"duplicate clip_path 'link.f32'$"):
            parse_manifest(path)

    def test_row_keeps_its_spelling_and_a_link_loop_parses(self, tmp_path):
        (tmp_path / "loop.wav").symlink_to("loop.wav")
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nsub/../loop.wav,ids,3,F01\n")
        assert [s.clip_path for s in parse_manifest(path)] == \
            [str(tmp_path / "sub/../loop.wav")]

    def test_nul_byte_in_clip_path_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na.wav,ids,3,F01\nb\0.wav,ids,3,F01\n")
        with pytest.raises(ManifestError,
                           match=rf"^{re.escape(str(path))}:3: NUL byte in clip_path$"):
            parse_manifest(path)

    def test_normal_absolute_path_resolves_to_its_own_text(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\n/d/sub/c.f32,ids,3,F01\na.wav,ads,3,F01\n")
        assert [s.clip_path for s in parse_manifest(path)] == \
            ["/d/sub/c.f32", str(tmp_path / "a.wav")]

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(f"{HEADER}\na.wav,ids,3,F01\n".encode()
                         + b"b\xff.wav,ids,3,F01\n")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:3: not UTF-8"):
            parse_manifest(path)

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_undecodable_byte_is_numbered_by_the_line_rule(self, tmp_path, end):
        path = tmp_path / "m.csv"
        path.write_bytes(f"{HEADER}{end}a.wav,ids,3,F01{end}".encode()
                         + f"b\xff.wav,ids,3,F01{end}".encode("latin-1"))
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:3: not UTF-8"):
            parse_manifest(path)

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_lines_end_at_cr_lf_or_crlf(self, tmp_path, end):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}{end}a.wav,ids,3,F01{end}{end}b.wav,ads,6,F02{end}",
                        newline="")
        assert [s.family_id for s in parse_manifest(path)] == ["F01", "F02"]
        path.write_text(f"{HEADER}{end}a.wav,ids,3,F01{end}{end}b.wav,crying,6,F02{end}",
                        newline="")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:4: unknown raw_label"):
            parse_manifest(path)

    # str.splitlines also breaks at these; a manifest line does not
    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_no_other_character_ends_a_line(self, tmp_path, char):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na.wav,ids,3,F{char}01\n", encoding="utf-8")
        [sample] = parse_manifest(path)
        assert sample.family_id == f"F{char}01"
        path.write_text(f"{HEADER}\na.wav,ids,3,F{char}01,x\n", encoding="utf-8")
        with pytest.raises(ManifestError,
                           match=rf"^{re.escape(str(path))}:2: expected 4 fields, got 5$"):
            parse_manifest(path)

    def test_blank_first_line_is_not_the_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"\n{HEADER}\na.wav,ids,3,F01\n")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:1: first line"):
            parse_manifest(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(codecs.BOM_UTF8 + f"{HEADER}\na.wav,ids,3,F01\n".encode())
        assert [(s.raw_label, s.age_months, s.family_id)
                for s in parse_manifest(path)] == [("ids", 3, "F01")]
        path.write_bytes(codecs.BOM_UTF8 + f"{HEADER}\n".encode() + b"b\xff.wav,ids,3,F01\n")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(path))}:2: not UTF-8"):
            parse_manifest(path)

    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER + "\n")
        assert parse_manifest(path) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,label\na,b\n")
        with pytest.raises(ManifestError, match="first line"):
            parse_manifest(path)

    def test_write_then_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(path, [("a.f32", "ads", 18, "F09")])
        s = parse_manifest(path)[0]
        assert (s.raw_label, s.age_months, s.family_id) == ("ads", 18, "F09")


class TestBuiltinTasks:
    def test_exactly_seven(self):
        assert len(builtin_tasks()) == 7

    def test_chance_values_as_printed(self):
        chances = [f"{t.chance_percent:.2f}" for t in builtin_tasks()]
        assert chances == ["50.00", "50.00", "50.00", "50.00", "33.33", "25.00", "20.00"]

    def test_infant_vs_adult_groups_infant_labels_as_class_zero(self):
        task = get_task("infant_vs_adult")
        assert task.mapping["laugh_cry"] == 0
        assert task.mapping["canonical"] == 0
        assert task.mapping["non_canonical"] == 0
        assert task.mapping["ids"] == 1 and task.mapping["ads"] == 1

    def test_vocal_vs_nonvocal_excludes_adult_labels(self):
        task = get_task("vocal_vs_nonvocal")
        assert task.mapping["canonical"] == 0 and task.mapping["non_canonical"] == 0
        assert task.mapping["laugh_cry"] == 1
        assert task.mapping["ids"] is EXCLUDED and task.mapping["ads"] is EXCLUDED

    def test_ids_vs_ads_excludes_infant_labels(self):
        task = get_task("ids_vs_ads")
        assert task.mapping["ids"] == 0 and task.mapping["ads"] == 1
        for label in ("laugh_cry", "canonical", "non_canonical"):
            assert task.mapping[label] is EXCLUDED

    def test_multiclass_groupings(self):
        three = get_task("three_class")
        assert three.mapping == {"laugh_cry": 0, "canonical": 1, "non_canonical": 1,
                                 "ids": 2, "ads": 2}
        four = get_task("four_class")
        assert four.mapping == {"laugh_cry": 0, "canonical": 1, "non_canonical": 2,
                                "ids": 3, "ads": 3}
        five = get_task("five_class")
        assert five.num_classes == 5
        assert sorted(five.mapping.values()) == [0, 1, 2, 3, 4]

    def test_every_label_mapped_or_excluded_never_missing(self):
        for task in builtin_tasks():
            for label in RAW_LABELS:
                assert label in task.mapping

    def test_unknown_task_name(self):
        with pytest.raises(KeyError, match="unknown task"):
            get_task("six_class")


class TestMakeSplit:
    def test_lofo_test_is_exactly_the_family(self):
        samples = make_samples(60)
        split = make_split(samples, get_task("five_class"), policy="lofo:F01")
        assert all(s.family_id == "F01" for s in split.test)
        assert all(s.family_id != "F01" for s in split.train)
        assert len(split.test) == sum(s.family_id == "F01" for s in samples)

    def test_lofo_missing_family(self):
        samples = make_samples(20)
        with pytest.raises(ValueError, match="F99"):
            make_split(samples, get_task("five_class"), policy="lofo:F99")

    def test_holdout_fraction_with_stratification(self):
        samples = make_samples(100, labels=("ids", "ads"), seed=3)
        task = get_task("ids_vs_ads")
        split = make_split(samples, task, policy=HOLDOUT, seed=1, test_fraction=0.2)
        assert len(split.test) + len(split.train) == 100
        assert abs(len(split.test) - 20) <= 1
        for cls in (0, 1):
            total = sum(task.class_of(s) == cls for s in samples)
            in_test = sum(task.class_of(s) == cls for s in split.test)
            assert abs(in_test - round(total * 0.2)) <= 1

    def test_same_seed_same_split(self):
        samples = make_samples(50, seed=4)
        task = get_task("five_class")
        a = make_split(samples, task, seed=7)
        b = make_split(samples, task, seed=7)
        assert a.train == b.train and a.test == b.test
        c = make_split(samples, task, seed=8)
        assert a.test != c.test

    def test_excluded_labels_filtered_before_split(self):
        samples = make_samples(80, seed=5)
        task = get_task("ids_vs_ads")
        split = make_split(samples, task, seed=0)
        kept = {"ids", "ads"}
        assert all(s.raw_label in kept for s in split.train + split.test)

    def test_train_test_disjoint(self):
        samples = make_samples(70, seed=6)
        split = make_split(samples, get_task("five_class"), seed=2)
        assert not {s.clip_path for s in split.train} & {s.clip_path for s in split.test}


class TestBatches:
    def test_sizes_with_partial_final_batch(self):
        samples = make_samples(300, seed=7)
        got = batches(samples, 128, seed=0, epoch=0)
        assert [len(b) for b in got] == [128, 128, 44]

    def test_epoch_changes_order_not_content(self):
        samples = make_samples(40, seed=8)
        flat0 = [s for b in batches(samples, 7, seed=0, epoch=0) for s in b]
        flat1 = [s for b in batches(samples, 7, seed=0, epoch=1) for s in b]
        assert flat0 != flat1
        assert sorted(s.clip_path for s in flat0) == sorted(s.clip_path for s in flat1)

    def test_same_seed_epoch_identical(self):
        samples = make_samples(40, seed=9)
        a = batches(samples, 8, seed=3, epoch=5)
        b = batches(samples, 8, seed=3, epoch=5)
        assert a == b

    def test_epoch_forms_exact_permutation(self):
        samples = make_samples(33, seed=10)
        flat = [s for b in batches(samples, 10, seed=1, epoch=2) for s in b]
        assert sorted(s.clip_path for s in flat) == sorted(s.clip_path for s in samples)
        assert len(flat) == len(samples)


class TestSplitHygieneProperties:
    """Randomized-manifest property checks."""

    def test_lofo_never_leaks_families(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n_fam = int(rng.integers(2, 6))
            families = [f"F{i:02d}" for i in range(n_fam)]
            samples = make_samples(int(rng.integers(10, 80)), families=families,
                                   seed=trial + 100)
            task = get_task("five_class")
            present = sorted({s.family_id for s in task.filter(samples)})
            if not present:
                continue
            family = present[int(rng.integers(len(present)))]
            split = make_split(samples, task, policy=f"lofo:{family}",
                               seed=int(rng.integers(1000)))
            train_families = {s.family_id for s in split.train}
            test_families = {s.family_id for s in split.test}
            assert not train_families & test_families
            assert test_families == {family}

    def test_batches_always_permute(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            samples = make_samples(int(rng.integers(1, 60)), seed=trial + 500)
            size = int(rng.integers(1, 20))
            epoch = int(rng.integers(0, 10))
            flat = [s for b in batches(samples, size, seed=trial, epoch=epoch) for s in b]
            assert sorted(s.clip_path for s in flat) == \
                sorted(s.clip_path for s in samples)


class TestTaskSpecValidation:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match=">= 2"):
            TaskSpec("solo", ("only",), {label: 0 for label in RAW_LABELS})

    def test_unmapped_label_rejected(self):
        with pytest.raises(ValueError, match="unmapped"):
            TaskSpec("partial", ("a", "b"), {"ids": 0, "ads": 1})

    def test_filter_keeps_participating_only(self):
        samples = make_samples(40, seed=13)
        task = get_task("canonical_vs_noncanonical")
        kept = task.filter(samples)
        assert all(s.raw_label in ("canonical", "non_canonical") for s in kept)
