"""Tests for the Data4LLM preparation toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ngram import NGramLM
from repro.data.synth import (
    QUALITY_CLEAN,
    QUALITY_GIBBERISH,
    CorpusBuilder,
    CorpusConfig,
    TrainingDocument,
    corpus_summary,
)
from repro.errors import ConfigError, PipelineError
from repro.prep import (
    ActiveLearner,
    Augmenter,
    CentroidClassifier,
    DSIRMixer,
    ExactDeduper,
    GradientMixer,
    MarkovSynthesizer,
    MinHashDeduper,
    MixtureEvaluator,
    PerplexityFilter,
    PrepPipeline,
    QualityClassifier,
    RuleBasedQualityFilter,
    TabularSynthesizer,
    TemplateSynthesizer,
    ToxicityFilter,
    cluster_coreset,
    dedup_metrics,
    distinct_ngrams,
    diversity_score,
    embed_docs,
    empirical_mixture,
    fidelity_report,
    filter_metrics,
    heuristic_mixture,
    jaccard,
    kcenter_coreset,
    line_dedup,
    normalize_mixture,
    perplexity_selection,
    random_selection,
    sample_by_mixture,
    selection_quality,
    shingles,
    standard_pipeline,
    synonym_replace,
    target_similarity_selection,
    text_features,
    token_dropout,
)


def _doc(text, doc_id="d0", domain="news", **kw):
    return TrainingDocument(doc_id=doc_id, text=text, domain=domain, **kw)


class TestCorpusBuilder:
    def test_defect_rates_close_to_config(self, training_corpus):
        summary = corpus_summary(training_corpus)
        assert 0.05 <= summary["low_quality_fraction"] <= 0.30
        assert 0.10 <= summary["duplicate_fraction"] <= 0.30
        assert summary["toxic_fraction"] > 0

    def test_deterministic(self):
        a = CorpusBuilder(CorpusConfig(docs_per_domain=10, seed=1)).build()
        b = CorpusBuilder(CorpusConfig(docs_per_domain=10, seed=1)).build()
        assert [d.text for d in a] == [d.text for d in b]

    def test_duplicates_share_group(self, training_corpus):
        groups = {}
        for doc in training_corpus:
            if doc.dup_group is not None:
                groups.setdefault(doc.dup_group, []).append(doc)
        assert groups
        for members in groups.values():
            assert len(members) >= 2
            assert len({m.domain for m in members}) == 1

    def test_domain_weights(self, corpus_builder):
        docs = corpus_builder.eval_set(per_domain=10, domain_weights={"news": 1.0})
        assert {d.domain for d in docs} == {"news"}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CorpusConfig(gibberish_fraction=0.5, boilerplate_fraction=0.6).validate()
        with pytest.raises(ConfigError):
            CorpusConfig(toxic_fraction=1.5).validate()


class TestShingles:
    def test_identical_docs_jaccard_one(self):
        a = shingles("the quick brown fox jumps over the dog")
        assert jaccard(a, a) == 1.0

    def test_disjoint_docs_jaccard_zero(self):
        a = shingles("alpha beta gamma delta epsilon")
        b = shingles("one two three four five")
        assert jaccard(a, b) == 0.0

    def test_short_text(self):
        assert shingles("hi") != set()
        assert shingles("") == set()

    @given(st.text(alphabet="abcde ", min_size=10, max_size=80))
    @settings(max_examples=30)
    def test_jaccard_bounds(self, text):
        a = shingles(text)
        b = shingles(text + " extra words here")
        assert 0.0 <= jaccard(a, b) <= 1.0


class TestDedup:
    def test_exact_removes_only_exact(self, training_corpus):
        result = ExactDeduper().dedup(training_corpus)
        metrics = dedup_metrics(training_corpus, result)
        assert metrics["precision"] >= 0.6
        # Near-duplicates escape exact dedup by construction.
        assert metrics["recall"] < 0.9

    def test_minhash_catches_near_dups(self, training_corpus):
        result = MinHashDeduper(seed=1).dedup(training_corpus)
        metrics = dedup_metrics(training_corpus, result)
        assert metrics["recall"] >= 0.85
        assert metrics["precision"] >= 0.5

    def test_minhash_signature_similarity_estimates_jaccard(self):
        deduper = MinHashDeduper(num_permutations=128, bands=32, rows_per_band=4)
        a = shingles("the quick brown fox jumps over the lazy dog again and again")
        b = shingles("the quick brown fox jumps over the lazy cat again and again")
        sig_a, sig_b = deduper.signature(a), deduper.signature(b)
        estimate = float((sig_a == sig_b).mean())
        assert abs(estimate - jaccard(a, b)) < 0.25

    def test_minhash_threshold_formula(self):
        deduper = MinHashDeduper(bands=16, rows_per_band=4)
        assert deduper.estimated_threshold() == pytest.approx((1 / 16) ** 0.25)

    def test_minhash_band_validation(self):
        with pytest.raises(ConfigError):
            MinHashDeduper(num_permutations=64, bands=10, rows_per_band=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shingle_size": 0},
            {"shingle_size": -2},
            {"num_permutations": 0, "bands": 0, "rows_per_band": 4},
            {"num_permutations": 0, "bands": 16, "rows_per_band": 0},
            {"num_permutations": 4, "bands": -1, "rows_per_band": -4},
            {"verify_threshold": 1.5},
            {"verify_threshold": -1.0},
            {"verify_threshold": float("nan")},
        ],
    )
    def test_minhash_rejects_bad_config_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            MinHashDeduper(**kwargs)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_minhash_threshold_bounds_are_inclusive(self, threshold):
        text = "the same three documents share every single shingle here"
        docs = [
            TrainingDocument(doc_id=f"d{i}", text=text, domain="news")
            for i in range(3)
        ]
        result = MinHashDeduper(verify_threshold=threshold).dedup(docs)
        assert [d.doc_id for d in result.kept] == ["d0"]
        assert result.verified_pairs == result.candidate_pairs == 3

    def test_line_dedup_strips_boilerplate(self):
        docs = [
            _doc("unique one. shared footer line.", "a"),
            _doc("unique two. shared footer line.", "b"),
            _doc("unique three. shared footer line.", "c"),
        ]
        out, removed = line_dedup(docs, max_occurrences=2)
        assert removed == 3
        assert all("footer" not in d.text for d in out)

    def test_line_dedup_drops_empty_docs(self):
        docs = [_doc("only line.", "a"), _doc("only line.", "b"), _doc("only line.", "c")]
        out, _ = line_dedup(docs, max_occurrences=1)
        assert len(out) == 0

    def test_line_dedup_dedups_within_doc(self):
        docs = [_doc("again. again. again. fresh.", "a")]
        out, removed = line_dedup(docs)
        assert removed == 2
        assert out[0].text.count("again") == 1


class TestCleaning:
    def test_text_features_keys(self):
        features = text_features("A normal sentence, with words.")
        assert set(features) >= {"mean_word_len", "alpha_ratio", "repetition_ratio"}

    def test_rules_catch_each_defect(self, corpus_builder):
        docs = corpus_builder.build()
        rules = RuleBasedQualityFilter()
        kept, dropped = rules.filter(docs)
        metrics = filter_metrics(docs, kept)
        assert metrics["precision"] >= 0.9
        assert metrics["recall"] >= 0.9

    def test_perplexity_filter_threshold(self, training_corpus, eval_texts):
        reference = NGramLM(order=2).fit(eval_texts)
        gibberish_ppl = [
            reference.perplexity(d.text)
            for d in training_corpus
            if d.quality == QUALITY_GIBBERISH
        ]
        clean_ppl = [
            reference.perplexity(d.text)
            for d in training_corpus
            if d.quality == QUALITY_CLEAN
        ][: len(gibberish_ppl)]
        assert np.median(gibberish_ppl) > np.median(clean_ppl)
        cut = float(np.median(clean_ppl) * 2)
        filt = PerplexityFilter(reference, max_perplexity=cut)
        kept, dropped = filt.filter(training_corpus)
        assert dropped

    def test_perplexity_filter_validation(self, eval_texts):
        reference = NGramLM().fit(eval_texts)
        with pytest.raises(ConfigError):
            PerplexityFilter(reference, max_perplexity=0.5)

    def test_classifier_learns_quality(self, training_corpus):
        train = training_corpus[:250]
        test = training_corpus[250:400]
        clf = QualityClassifier().fit(train, [d.quality == QUALITY_CLEAN for d in train])
        kept, _ = clf.filter(test)
        metrics = filter_metrics(test, kept)
        assert metrics["precision"] >= 0.8
        assert metrics["recall"] >= 0.8

    def test_classifier_requires_fit(self, training_corpus):
        with pytest.raises(ConfigError):
            QualityClassifier().score(training_corpus[0])

    def test_toxicity_filter_exact(self, training_corpus):
        kept, _ = ToxicityFilter().filter(training_corpus)
        metrics = filter_metrics(training_corpus, kept, target="toxic")
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0


class TestSelection:
    def test_budget_validation(self, training_corpus):
        with pytest.raises(ConfigError):
            random_selection(training_corpus, 0)

    def test_budget_clamped(self, training_corpus):
        selected = random_selection(training_corpus[:5], 100)
        assert len(selected) == 5

    def test_random_seeded(self, training_corpus):
        assert random_selection(training_corpus, 10, seed=1) == random_selection(
            training_corpus, 10, seed=1
        )

    def test_perplexity_low_mode_avoids_gibberish(self, training_corpus, eval_texts):
        reference = NGramLM(order=2).fit(eval_texts)
        selected = perplexity_selection(training_corpus, 50, reference, mode="low")
        gibberish = sum(
            1 for i in selected if training_corpus[i].quality == QUALITY_GIBBERISH
        )
        assert gibberish == 0

    def test_perplexity_mode_validation(self, training_corpus, eval_texts):
        reference = NGramLM().fit(eval_texts)
        with pytest.raises(ConfigError):
            perplexity_selection(training_corpus, 10, reference, mode="high")

    def test_kcenter_spreads(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0, 0.1, (50, 8))
        blob_b = rng.normal(5, 0.1, (50, 8))
        embeddings = np.vstack([blob_a, blob_b]).astype(np.float32)
        selected = kcenter_coreset(embeddings, 2, seed=1)
        assert (selected[0] < 50) != (selected[1] < 50)

    def test_cluster_coreset_covers_clusters(self):
        rng = np.random.default_rng(1)
        blobs = [rng.normal(c * 10, 0.1, (40, 8)) for c in range(3)]
        embeddings = np.vstack(blobs).astype(np.float32)
        selected = cluster_coreset(embeddings, 12, num_clusters=3, seed=1)
        thirds = {i // 40 for i in selected}
        assert thirds == {0, 1, 2}

    def test_target_similarity_selects_topical(self, training_corpus):
        embeddings = embed_docs(training_corpus)
        news_idx = [i for i, d in enumerate(training_corpus) if d.domain == "news"]
        target = embeddings[news_idx[:10]]
        selected = target_similarity_selection(embeddings, target, 30)
        news_selected = sum(
            1 for i in selected if training_corpus[i].domain == "news"
        )
        assert news_selected >= 20

    def test_selection_beats_random_on_noisy_corpus(
        self, training_corpus, eval_texts
    ):
        reference = NGramLM(order=2).fit(eval_texts)
        budget = len(training_corpus) // 4
        random_ppl = selection_quality(
            training_corpus, random_selection(training_corpus, budget, seed=3), eval_texts
        )
        smart_ppl = selection_quality(
            training_corpus,
            perplexity_selection(training_corpus, budget, reference, mode="mid"),
            eval_texts,
        )
        assert smart_ppl < random_ppl


class TestMixtures:
    def test_normalize(self):
        mix = normalize_mixture({"a": 2.0, "b": 2.0, "c": 0.0})
        assert mix == {"a": 0.5, "b": 0.5}

    def test_normalize_rejects_empty(self):
        with pytest.raises(ConfigError):
            normalize_mixture({"a": 0.0})

    def test_empirical(self, training_corpus):
        mix = empirical_mixture(training_corpus)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_sample_by_mixture_respects_weights(self, training_corpus):
        selected = sample_by_mixture(
            training_corpus, heuristic_mixture(news=1.0), 40, seed=1
        )
        assert all(training_corpus[i].domain == "news" for i in selected)

    def test_dsir_prefers_target_domains(self, training_corpus, corpus_builder):
        target = [
            d.text
            for d in corpus_builder.eval_set(
                per_domain=20, domain_weights={"code": 1.0}
            )
        ]
        mixer = DSIRMixer(seed=2).fit(training_corpus, target)
        mixture = mixer.discovered_mixture(training_corpus, 100)
        natural_share = empirical_mixture(training_corpus).get("code", 0.0)
        assert mixture.get("code", 0.0) == max(mixture.values())
        assert mixture["code"] >= 2 * natural_share

    def test_gradient_mixer_prefers_target_domains(
        self, training_corpus, corpus_builder
    ):
        target = [
            d.text
            for d in corpus_builder.eval_set(
                per_domain=20, domain_weights={"ads": 1.0}
            )
        ]
        mixture = GradientMixer(rounds=2).discover(training_corpus, target)
        assert mixture.get("ads", 0.0) == max(mixture.values())

    def test_discovered_beats_natural(self, training_corpus, corpus_builder):
        target = [
            d.text
            for d in corpus_builder.eval_set(
                per_domain=20, domain_weights={"news": 0.5, "academic": 0.5}
            )
        ]
        evaluator = MixtureEvaluator(training_corpus, target, budget=120, seed=2)
        natural = evaluator.evaluate(empirical_mixture(training_corpus))
        dsir = evaluator.evaluate(
            DSIRMixer(seed=2).fit(training_corpus, target).discovered_mixture(
                training_corpus, 120
            )
        )
        assert dsir.target_perplexity < natural.target_perplexity


class TestAugmentation:
    def test_synonym_replace_changes_words(self):
        doc = _doc("the minister announced the budget and the economy grew.")
        out = synonym_replace(doc, rate=1.0, seed=1)
        assert out.text != doc.text
        assert out.doc_id.endswith("~syn")

    def test_token_dropout_shrinks(self):
        doc = _doc(" ".join(["word"] * 100))
        out = token_dropout(doc, rate=0.3, seed=1)
        assert len(out.text.split()) < 100

    def test_dropout_rate_validation(self):
        with pytest.raises(ConfigError):
            token_dropout(_doc("x"), rate=1.0)

    def test_augmenter_grows_corpus_and_coverage(self, training_corpus):
        base = [d for d in training_corpus[:60] if d.quality == QUALITY_CLEAN]
        augmenter = Augmenter(("synonym",), copies_per_doc=1, link_fraction=0.2, seed=2)
        out = augmenter.augment(base)
        assert len(out) > len(base)
        assert distinct_ngrams(out) > distinct_ngrams(base)

    def test_augmenter_validation(self):
        with pytest.raises(ConfigError):
            Augmenter(("teleport",))

    def test_diversity_score_bounds(self, training_corpus):
        assert 0.0 <= diversity_score(training_corpus[:20]) <= 1.0


class TestLabeling:
    def test_centroid_classifier_accuracy(self, training_corpus):
        rng = np.random.default_rng(0)
        pool = [d for d in training_corpus if d.quality == QUALITY_CLEAN]
        pool = [pool[i] for i in rng.permutation(len(pool))][:120]
        labels = [d.domain for d in pool]
        clf = CentroidClassifier().fit(pool[:60], labels[:60])
        assert clf.accuracy(pool[60:], labels[60:]) >= 0.7

    def test_active_learning_beats_random(self, training_corpus):
        rng = np.random.default_rng(1)
        pool = [d for d in training_corpus if d.quality == QUALITY_CLEAN]
        pool = [pool[i] for i in rng.permutation(len(pool))][:150]
        test = pool[100:]
        pool = pool[:100]
        test_labels = [d.domain for d in test]

        def oracle(doc):
            return doc.domain

        active = ActiveLearner(oracle, batch_size=8, seed=3, strategy="uncertainty")
        random_l = ActiveLearner(oracle, batch_size=8, seed=3, strategy="random")
        a_curve = active.run(pool, budget=40, test_docs=test, test_labels=test_labels)
        r_curve = random_l.run(pool, budget=40, test_docs=test, test_labels=test_labels)
        assert a_curve[-1].accuracy >= r_curve[-1].accuracy - 0.05
        assert a_curve[-1].labels_spent == 40

    def test_active_learner_validation(self):
        with pytest.raises(ConfigError):
            ActiveLearner(lambda d: "x", strategy="psychic")


class TestSynthesis:
    def test_markov_produces_plausible_text(self, training_corpus, eval_texts):
        clean = [d for d in training_corpus if d.is_clean][:150]
        synth = MarkovSynthesizer(seed=1).fit(clean).sample(60)
        report = fidelity_report(clean, synth)
        assert report["perplexity_transfer"] < 100
        assert report["novelty"] > 0.1

    def test_template_synthesizer_on_domain(self):
        docs = TemplateSynthesizer(seed=2).sample(10, domain="code")
        assert len(docs) == 10
        assert all(d.domain == "code" for d in docs)

    def test_tabular_synthesizer_preserves_marginals(self, world):
        from repro.datalake import DataLake

        table = DataLake.from_world(world).get("table:companies").table
        synth = TabularSynthesizer(seed=3).fit(table).sample(200)
        real_mean = np.mean([r["revenue_musd"] for r in table.rows])
        synth_mean = np.mean([r["revenue_musd"] for r in synth.rows])
        assert abs(synth_mean - real_mean) / real_mean < 0.5
        real_industries = set(table.column_values("industry"))
        assert set(synth.column_values("industry")) <= real_industries

    def test_tabular_requires_fit(self):
        with pytest.raises(ConfigError):
            TabularSynthesizer().sample(5)


class TestPipeline:
    def test_standard_pipeline_improves_proxy(self, training_corpus, eval_texts):
        cleaned, report = standard_pipeline().run(training_corpus)
        before = NGramLM(order=2).fit(d.text for d in training_corpus)
        after = NGramLM(order=2).fit(d.text for d in cleaned)
        assert after.corpus_perplexity(eval_texts) < before.corpus_perplexity(eval_texts)
        assert report.stages[-1].tokens_out < 0.9 * report.stages[0].tokens_in
        assert len(report.stages) == 4

    def test_stage_accounting(self, training_corpus):
        _, report = standard_pipeline().run(training_corpus)
        for stage in report.stages:
            assert stage.docs_out <= stage.docs_in
            assert stage.seconds >= 0
        assert "stage" in report.render()

    def test_duplicate_stage_rejected(self):
        pipeline = PrepPipeline().add_stage("a", lambda docs: docs)
        with pytest.raises(PipelineError):
            pipeline.add_stage("a", lambda docs: docs)

    def test_empty_pipeline_rejected(self, training_corpus):
        with pytest.raises(PipelineError):
            PrepPipeline().run(training_corpus)

    def test_failing_stage_wrapped(self, training_corpus):
        pipeline = PrepPipeline().add_stage("boom", lambda docs: 1 / 0)
        with pytest.raises(PipelineError):
            pipeline.run(training_corpus)


class TestLLMLoop:
    def test_assisted_filter_cascade_economics(self, world, training_corpus):
        from repro.llm import make_llm
        from repro.prep import LLMAssistedFilter

        train = training_corpus[:200]
        clf = QualityClassifier().fit(
            train, [d.quality == QUALITY_CLEAN for d in train]
        )
        llm = make_llm("sim-base", world=world, seed=20)
        assisted = LLMAssistedFilter(clf, llm, low_threshold=0.3, high_threshold=0.7)
        batch = training_corpus[200:280]
        kept, stats = assisted.filter(batch)
        assert stats.llm_fraction < 0.5  # most handled by the classifier
        assert stats.kept + stats.dropped == len(batch)

    def test_llm_prep_system_pipeline(self, world, training_corpus):
        from repro.llm import make_llm
        from repro.prep import LLMPrepSystem

        train = training_corpus[:200]
        clf = QualityClassifier().fit(
            train, [d.quality == QUALITY_CLEAN for d in train]
        )
        llm = make_llm("sim-base", world=world, seed=21)
        system = LLMPrepSystem(llm, clf)
        out, report = system.build_pipeline().run(training_corpus[200:320])
        assert len(out) < 120
        assert system.last_stats is not None
        assert len(report.stages) == 4
