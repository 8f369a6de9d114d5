import itertools
import string

import pytest
from hypothesis import given, settings, strategies as st

from qexp import porter
from qexp.porter import stem
from qexp.text import STOPWORDS, tokenize

from oracles import oracle_stem

# every suffix a rule of steps 1a-5b tests, in step order, with the
# endings step 1b restores an "e" after and the "ion" endings step 4 strips
STEP_2_SUFFIXES = (
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti",
)
STEP_3_4_SUFFIXES = (
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "sion", "tion", "ou", "ism", "ate", "iti", "ous",
    "ive", "ize",
)
RULE_SUFFIXES = (
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
    *STEP_2_SUFFIXES, *STEP_3_4_SUFFIXES, "e", "ll",
)


class TestPorter:
    # canonical input/output pairs for the classic rule tables
    CASES = [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
        ("caress", "caress"), ("cats", "cat"),
        ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
        ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
        ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
        ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
        ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
        ("filing", "file"),
        ("happy", "happi"), ("sky", "sky"),
        ("relational", "relat"), ("conditional", "condit"),
        ("rational", "ration"), ("valenci", "valenc"), ("hesitanci", "hesit"),
        ("digitizer", "digit"), ("conformabli", "conform"),
        ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
        ("analogousli", "analog"), ("vietnamization", "vietnam"),
        ("predication", "predic"), ("operator", "oper"),
        ("feudalism", "feudal"), ("decisiveness", "decis"),
        ("hopefulness", "hope"), ("callousness", "callous"),
        ("formaliti", "formal"), ("sensitiviti", "sensit"),
        ("sensibiliti", "sensibl"),
        ("triplicate", "triplic"), ("formative", "form"),
        ("formalize", "formal"), ("electriciti", "electr"),
        ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
        ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
        ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"), ("defensible", "defens"),
        ("irritant", "irrit"), ("replacement", "replac"),
        ("adjustment", "adjust"), ("dependent", "depend"),
        ("adoption", "adopt"), ("homologou", "homolog"),
        ("communism", "commun"), ("activate", "activ"),
        ("angulariti", "angular"), ("homologous", "homolog"),
        ("effective", "effect"), ("bowdlerize", "bowdler"),
        ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
        ("controll", "control"), ("roll", "roll"),
    ]

    @pytest.mark.parametrize("word,expected", CASES)
    def test_rule_tables(self, word, expected):
        assert stem(word) == expected

    def test_short_words_untouched(self):
        assert stem("a") == "a"
        assert stem("") == ""

    @pytest.mark.parametrize("word,expected", [
        ("aéness", "aé"), ("naïveness", "naïv"), ("hopéful", "hopé"), ("oYing", "oY"),
    ])
    def test_non_ascii_and_uppercase_are_consonants(self, word, expected):
        # "é" after a vowel closes a VC, so m("aé") = 1; "Y" is never a vowel
        assert stem(word) == expected == oracle_stem(word)

    def test_digit_tokens_inert(self):
        for tok in ("t000", "topic001", "bg42"):
            assert stem(tok) == tok

    @settings(max_examples=500)
    @given(st.text())
    def test_matches_oracle_on_any_string(self, word):
        # uppercase, non-ASCII and punctuation are consonants in both
        assert stem(word) == oracle_stem(word)

    @settings(max_examples=500)
    @given(st.text(alphabet=string.ascii_lowercase + string.digits, max_size=20))
    def test_matches_oracle_on_tokens(self, word):
        assert stem(word) == oracle_stem(word)

    @settings(max_examples=500)
    @given(
        st.text(alphabet=string.ascii_lowercase + "Yéï1-", max_size=6),
        st.sampled_from(RULE_SUFFIXES),
        st.sampled_from(("", "s", "ed", "ing")),
    )
    def test_matches_oracle_on_rule_suffixes(self, prefix, suffix, tail):
        word = prefix + suffix + tail
        assert stem(word) == oracle_stem(word)

    # A rewrite leaves the word's class string as it was, and the next steps
    # read it past the stem: chain a step-2 rewrite into steps 3-5.
    @settings(max_examples=500)
    @given(
        st.text(alphabet=string.ascii_lowercase + "Yéï1-", max_size=6),
        st.sampled_from(STEP_2_SUFFIXES),
        st.sampled_from(STEP_3_4_SUFFIXES),
        st.sampled_from(("", "s", "ed", "ing")),
    )
    def test_matches_oracle_on_chained_rewrites(self, prefix, step_2, step_3_4, tail):
        word = prefix + step_2 + step_3_4 + tail
        assert stem(word) == oracle_stem(word)

    @pytest.mark.parametrize("word,expected", [
        ("rationalizations", "ration"), ("generalizations", "gener"), ("relativeness", "rel"),
        # biliti -> ble leaves "cv" where the stem's classes are "cc"
        ("mobiliti", "mobil"), ("feasibiliti", "feasibl"), ("ablebiliti", "ablebl"),
    ])
    def test_rewrites_chain_across_steps(self, word, expected):
        assert stem(word) == expected == oracle_stem(word)

    def test_rewrites_keep_the_classes_later_steps_read(self):
        # stem never rewrites a word's class string; that is exact only while
        # a replacement's classes are those of the suffix's first letters,
        # which holds without a y, whose class depends on the letter before it
        rules = [*porter._STEP2.items(), *porter._STEP3.items(), *porter._STEP4.items()]
        assert len(rules) == 46
        assert [rule for rule in rules if "y" in "".join(rule)] == []
        changed = [
            (suffix, repl) for suffix, repl in rules
            if porter._classes(repl) != porter._classes(suffix)[:len(repl)]
        ]
        assert changed == [("biliti", "ble")]
        # step 1b's "e" stands where the removed "ed" or "ing" began
        assert porter._classes("ed")[0] == porter._classes("ing")[0] == "v"

    def test_matches_oracle_on_every_short_prefix(self):
        # y after a vowel or a consonant, doubled l/s/z, *o stems and m up
        # to 2 all arise from this alphabet within four letters
        words = [
            "".join(letters) + suffix
            for size in range(5)
            for letters in itertools.product("aeylsz", repeat=size)
            for suffix in ("",) + RULE_SUFFIXES
        ]
        assert [w for w in words if stem(w) != oracle_stem(w)] == []

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
    def test_stemming_never_grows_much(self, word):
        # the only growth rules append a single 'e'
        assert len(stem(word)) <= len(word) + 1


class TestTokenize:
    def test_keyword_query(self):
        assert tokenize("museum baroque librarian architecture library") == [
            "museum", "baroqu", "librarian", "architectur", "librari",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_all_stopwords(self):
        assert tokenize("the of and") == []

    def test_splits_at_every_non_ascii_alphanumeric(self):
        # accented letters are separators, not letters of a token
        assert tokenize("Café naïve") == ["caf", "na", "ve"]

    def test_case_and_punctuation(self):
        assert tokenize("Museum, Baroque; LIBRARY!") == ["museum", "baroqu", "librari"]

    def test_order_preserved(self):
        assert tokenize("library museum library") == ["librari", "museum", "librari"]

    def test_stopword_list_is_classic(self):
        assert {"the", "of", "and", "is", "a"} <= STOPWORDS

    # The pipeline stems once, like any standard indexer. Re-tokenizing
    # output is idempotent whenever the emitted stems are themselves
    # stable, which holds for the experiment vocabularies; the classic
    # Porter rules are not an idempotent function in general, so blanket
    # idempotence cannot hold (see the pinned counterexamples below).
    @given(st.text(max_size=200))
    def test_idempotent_on_stable_output(self, text):
        once = tokenize(text)
        stable = [t for t in once if stem(t) == t and t not in STOPWORDS]
        assert tokenize(" ".join(stable)) == stable

    def test_experiment_vocabulary_is_stable(self):
        for tok in ("museum", "baroqu", "librarian", "architectur", "librari",
                    "topic001", "dominantbg0007", "t000"):
            assert tokenize(tok) == [tok]

    def test_known_restemming_instabilities(self):
        # double-pass behavior pinned so a change to either list shows up
        assert stem("eye") == "ey" and stem("ey") == "ei"
        assert stem("ase") == "as" and "as" in STOPWORDS
