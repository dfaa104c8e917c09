"""Tests for TADOC DAG analysis, analytics, and random access."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.tadoc import (
    RandomAccessIndex,
    compress,
    compress_files,
    compute_stats,
    count_word,
    dag_depth,
    extract,
    file_word_counts,
    locate_word,
    rule2location,
    rule_lengths,
    rule_usage,
    tokenize,
    topological_order,
    unique_words,
    word2rule,
    word_count,
)
from repro.tadoc.sequitur import Grammar, RuleRef


@pytest.fixture
def grammar():
    return compress(tokenize("a b c a b c a b d " * 20))


class TestDag:
    def test_topological_order_children_first(self, grammar):
        order = topological_order(grammar)
        seen = set()
        for rule_id in order:
            for element in grammar.rules[rule_id]:
                if isinstance(element, RuleRef):
                    assert element.rule_id in seen
            seen.add(rule_id)

    def test_depth_of_flat_grammar(self):
        flat = Grammar(rules={0: ["a", "b", "c"]}, root=0)
        assert dag_depth(flat) == 1

    def test_depth_grows_with_hierarchy(self, grammar):
        assert dag_depth(grammar) >= 2

    def test_cycle_detection(self):
        cyclic = Grammar(rules={0: [RuleRef(1)], 1: [RuleRef(0)]}, root=0)
        with pytest.raises(ValueError):
            topological_order(cyclic)

    def test_stats_fields(self, grammar):
        stats = compute_stats(grammar)
        assert stats.rules == grammar.rule_count()
        assert stats.depth == dag_depth(grammar)
        assert stats.terminals > 0
        assert stats.max_parents >= 2  # rule utility guarantees >= 2

    def test_update_cost_estimates(self, grammar):
        stats = compute_stats(grammar)
        assert stats.update_cost_unbounded() > stats.update_cost_bounded()

    def test_deeper_grammars_cost_more(self):
        shallow = compute_stats(compress(tokenize("x y " * 4)))
        deep = compute_stats(compress(tokenize("a b c d e f g h " * 64)))
        assert deep.depth >= shallow.depth


class TestAnalytics:
    def test_word_count_matches_counter(self, grammar):
        tokens = grammar.expand()
        assert word_count(grammar) == Counter(tokens)

    def test_count_word(self, grammar):
        tokens = grammar.expand()
        assert count_word(grammar, "a") == tokens.count("a")
        assert count_word(grammar, "missing") == 0

    def test_unique_words(self, grammar):
        assert unique_words(grammar) == set(grammar.expand())

    def test_rule_usage_root_is_one(self, grammar):
        assert rule_usage(grammar)[grammar.root] == 1

    def test_rule_usage_weights_multiply(self):
        # "abab abab" style nesting: inner rules used usage*refs times.
        grammar = compress(list("abababab"))
        usage = rule_usage(grammar)
        tokens = grammar.expand()
        total_terminals = sum(
            usage[rule_id]
            * sum(1 for el in body if not isinstance(el, RuleRef))
            for rule_id, body in grammar.rules.items()
        )
        assert total_terminals == len(tokens)

    def test_file_word_counts(self):
        files = [tokenize("x y x " * 5), tokenize("y z " * 7)]
        grammar = compress_files(files)
        assert file_word_counts(grammar) == [Counter(files[0]), Counter(files[1])]


class TestRandomAccess:
    def test_rule_lengths_sum(self, grammar):
        lengths = rule_lengths(grammar)
        assert lengths[grammar.root] == len(grammar.expand())

    def test_word2rule_contains_direct_words(self, grammar):
        index = word2rule(grammar)
        for word, rules in index.items():
            for rule_id in rules:
                assert word in grammar.rules[rule_id]

    def test_rule2location_root_at_zero(self, grammar):
        assert rule2location(grammar)[grammar.root] == [0]

    def test_rule2location_expansions_match(self, grammar):
        tokens = grammar.expand()
        lengths = rule_lengths(grammar)
        locations = rule2location(grammar)
        for rule_id, starts in locations.items():
            expansion = grammar.expand(rule_id)
            for start in starts:
                assert tokens[start : start + lengths[rule_id]] == expansion

    def test_extract_matches_slice(self, grammar):
        tokens = grammar.expand()
        assert extract(grammar, 5, 9) == tokens[5:14]
        assert extract(grammar, 0, len(tokens)) == tokens
        assert extract(grammar, len(tokens), 5) == []

    def test_extract_validates_arguments(self, grammar):
        with pytest.raises(ValueError):
            extract(grammar, -1, 5)

    def test_locate_word_matches_positions(self, grammar):
        tokens = grammar.expand()
        for word in ("a", "d"):
            expected = [i for i, token in enumerate(tokens) if token == word]
            assert locate_word(grammar, word) == expected

    def test_locate_missing_word(self, grammar):
        assert locate_word(grammar, "nope") == []

    def test_index_object(self, grammar):
        index = RandomAccessIndex(grammar)
        tokens = grammar.expand()
        assert index.total_tokens == len(tokens)
        assert index.extract(3, 4) == tokens[3:7]
        assert index.contains("a")
        assert not index.contains("nope")
        assert index.locate("b") == [i for i, t in enumerate(tokens) if t == "b"]


@given(st.lists(st.integers(0, 3), min_size=1, max_size=120), st.data())
@settings(max_examples=80, deadline=None)
def test_random_access_properties(tokens, data):
    grammar = compress(tokens)
    offset = data.draw(st.integers(0, len(tokens)))
    length = data.draw(st.integers(0, len(tokens)))
    assert extract(grammar, offset, length) == tokens[offset : offset + length]
    word = data.draw(st.sampled_from(tokens))
    assert locate_word(grammar, word) == [
        i for i, token in enumerate(tokens) if token == word
    ]
    assert word_count(grammar) == Counter(tokens)


class TestInvertedIndex:
    def test_matches_naive_index(self):
        from repro.tadoc import inverted_index

        files = [
            tokenize("apple banana apple"),
            tokenize("banana cherry"),
            tokenize("apple date date"),
        ]
        grammar = compress_files(files)
        index = inverted_index(grammar)
        expected: dict = {}
        for file_no, tokens in enumerate(files):
            for token in tokens:
                expected.setdefault(token, set()).add(file_no)
        assert index == expected

    def test_shared_rules_attributed_to_each_file(self):
        from repro.tadoc import inverted_index

        shared = tokenize("common phrase here " * 6)
        files = [shared + tokenize("only one"), shared + tokenize("only two")]
        grammar = compress_files(files)
        index = inverted_index(grammar)
        assert index["common"] == {0, 1}
        assert index["one"] == {0}
        assert index["two"] == {1}

    def test_single_file(self):
        from repro.tadoc import inverted_index

        grammar = compress_files([tokenize("a b a")])
        assert inverted_index(grammar) == {"a": {0}, "b": {0}}

    def test_random_files_property(self):
        import random

        from repro.tadoc import inverted_index

        for trial in range(30):
            rng = random.Random(trial)
            files = [
                [rng.randrange(5) for __ in range(rng.randrange(1, 40))]
                for __ in range(rng.randrange(1, 5))
            ]
            grammar = compress_files(files)
            expected: dict = {}
            for file_no, tokens in enumerate(files):
                for token in tokens:
                    expected.setdefault(token, set()).add(file_no)
            assert inverted_index(grammar) == expected, trial
