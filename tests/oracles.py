"""Independent straight-from-the-formula oracles used by the test suite.

Everything here works on raw token lists and plain arithmetic so the
implementations under test share no code with the oracles, apart from the
stopword list the tokenizer oracle reads; it stems with its own rule-by-rule
Porter transcription. The predictor oracle covers a single category
described by a doc_id->group mapping; it adds floats left to right in the
implementation's order, so its scores and distributions compare exactly.
The ranking oracle scores every document on its own and keeps the
implementation's arithmetic order, so its scores compare exactly. The
expansion oracle counts terms from the feedback documents' tokens and adds
in the implementation's order, so its weights compare exactly too. The
sampled-exposure oracle draws with random.sample itself.
"""

import math
import random
import re
import unicodedata
from collections import Counter
from itertools import combinations

from qexp.text import STOPWORDS

SMOOTH = 0.5
CORI_B = 0.4
CORI_DF_BASE = 50.0
CORI_DF_SCALE = 150.0
BM25_K1 = 1.2
BM25_B = 0.75
FB_DOCS = 3
FB_TERMS = 10
RM3_LAMBDA = 0.5


def _docs_of_group(doc_tokens, labels, group):
    return [d for d, toks in doc_tokens.items() if labels[d] == group]


def _df_in(doc_tokens, docs, term):
    return sum(1 for d in docs if term in doc_tokens[d])


def _cf_in(doc_tokens, docs, term):
    return sum(doc_tokens[d].count(term) for d in docs)


def oracle_raw_scores(name, doc_tokens, labels, groups, query_terms, k=100):
    """Raw per-group scores for one predictor, straight from its formula."""
    qtf = Counter(query_terms)
    total_q = sum(qtf.values())
    n_docs = len(doc_tokens)
    all_docs = list(doc_tokens)

    if name == "gep":
        qvec = {}
        for t, c in qtf.items():
            df = _df_in(doc_tokens, all_docs, t)
            if df == 0:
                qvec[t] = 0.0
            else:
                qvec[t] = c * max(0.0, math.log2((n_docs - df + SMOOTH) / (df + SMOOTH)))
        raw = {}
        for g in groups:
            docs_g = _docs_of_group(doc_tokens, labels, g)
            n_g = len(docs_g)
            e = 0.0
            for t, qw in qvec.items():
                if qw == 0.0:
                    continue
                df_g = _df_in(doc_tokens, docs_g, t)
                if df_g == 0:
                    continue
                idf_g = max(0.0, math.log2((n_g - df_g + SMOOTH) / (df_g + SMOOTH)))
                tfidf = sorted(
                    (doc_tokens[d].count(t) * idf_g for d in docs_g if t in doc_tokens[d]),
                    reverse=True,
                )
                e += qw * (_add_left_to_right(tfidf[:k]) / k)
            raw[g] = e
        return raw

    if name == "avidf":
        raw = {}
        for g in groups:
            docs_g = _docs_of_group(doc_tokens, labels, g)
            n_g = len(docs_g)
            if n_g == 0:
                raw[g] = 0.0
                continue
            acc = _add_left_to_right(
                c * math.log2(n_g / (_df_in(doc_tokens, docs_g, t) or SMOOTH))
                for t, c in qtf.items()
            )
            raw[g] = acc / total_q
        return raw

    if name == "avictf":
        raw = {}
        for g in groups:
            docs_g = _docs_of_group(doc_tokens, labels, g)
            tokens_g = sum(len(doc_tokens[d]) for d in docs_g)
            if tokens_g == 0:
                raw[g] = 0.0
                continue
            acc = _add_left_to_right(
                c * math.log2(tokens_g / (_cf_in(doc_tokens, docs_g, t) or SMOOTH))
                for t, c in qtf.items()
            )
            raw[g] = acc / total_q
        return raw

    if name == "scs":
        raw = {}
        for g in groups:
            docs_g = _docs_of_group(doc_tokens, labels, g)
            tokens_g = sum(len(doc_tokens[d]) for d in docs_g)
            if tokens_g == 0:
                raw[g] = 0.0
                continue
            acc = 0.0
            for t, c in qtf.items():
                p_q = c / total_q
                p_c = (_cf_in(doc_tokens, docs_g, t) or SMOOTH) / tokens_g
                acc += p_q * math.log2(p_q / p_c)
            raw[g] = acc
        return raw

    if name == "avpmi":
        distinct = list(dict.fromkeys(query_terms))
        if len(distinct) < 2:
            return oracle_raw_scores("avidf", doc_tokens, labels, groups, query_terms, k)
        pairs = [
            (distinct[i], distinct[j])
            for i in range(len(distinct))
            for j in range(i + 1, len(distinct))
        ]
        raw = {}
        for g in groups:
            docs_g = _docs_of_group(doc_tokens, labels, g)
            n_g = len(docs_g)
            if n_g == 0:
                raw[g] = 0.0
                continue
            acc = 0.0
            for t1, t2 in pairs:
                joint = sum(
                    1 for d in docs_g if t1 in doc_tokens[d] and t2 in doc_tokens[d]
                )
                p1 = (_df_in(doc_tokens, docs_g, t1) + SMOOTH) / n_g
                p2 = (_df_in(doc_tokens, docs_g, t2) + SMOOTH) / n_g
                p12 = (joint + SMOOTH) / n_g
                acc += math.log2(p12 / (p1 * p2))
            raw[g] = acc / len(pairs)
        return raw

    if name == "cori":
        tokens = {
            g: sum(len(doc_tokens[d]) for d in _docs_of_group(doc_tokens, labels, g))
            for g in groups
        }
        mean_cw = sum(tokens.values()) / len(groups)
        gf = {
            t: sum(
                1
                for g in groups
                if _df_in(doc_tokens, _docs_of_group(doc_tokens, labels, g), t) > 0
            )
            for t in qtf
        }
        raw = {}
        for g in groups:
            docs_g = _docs_of_group(doc_tokens, labels, g)
            acc = weight = 0.0
            for t, c in qtf.items():
                if gf[t] == 0:
                    continue
                df_g = _df_in(doc_tokens, docs_g, t)
                t_part = df_g / (
                    df_g + CORI_DF_BASE + CORI_DF_SCALE * tokens[g] / mean_cw
                )
                i_part = math.log((len(groups) + 0.5) / gf[t]) / math.log(len(groups) + 1.0)
                acc += c * (CORI_B + (1 - CORI_B) * t_part * i_part)
                weight += c
            raw[g] = acc / weight if weight > 0 else 0.0
        return raw

    if name == "uniform":
        return dict.fromkeys(groups, 1.0)

    raise ValueError(f"no oracle for predictor {name!r}")


def oracle_distribution(raw, groups):
    """Floor at zero then divide by the sum; uniform when all mass is zero."""
    floored = [max(0.0, raw[g]) for g in groups]
    total = _add_left_to_right(floored)
    if total == 0.0:
        return [1.0 / len(groups)] * len(groups)
    return [v / total for v in floored]


# ------------------------------ stemmer oracle ------------------------------
# The Porter stemmer transcribed rule by rule (classic 1980 tables): every
# step tries each suffix of its table with endswith, keeps the longest match,
# then tests its condition; m and the consonant test walk the word one
# character at a time. Every character other than a vowel (and y after a
# consonant) is a consonant. This is the implementation qexp.porter had
# before it moved to class strings and suffix tables.

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """m in the pattern [C](VC)^m[V]: vowel-to-consonant transitions."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and prev_vowel:
            m += 1
        prev_vowel = not cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # *o condition: final consonant-vowel-consonant, last not w, x or y.
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _is_consonant(word, n - 3)
        and not _is_consonant(word, n - 2)
        and _is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement) pairs; condition per step noted at the call site.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_match(word: str, suffixes) -> str | None:
    best = None
    for s in suffixes:
        if word.endswith(s) and (best is None or len(s) > len(best)):
            best = s
    return best


def oracle_stem(word: str) -> str:
    if len(word) <= 1:
        return word
    w = word

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            stripped = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            stripped = True
        if stripped:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # Step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2 (m > 0)
    match = _longest_match(w, [s for s, _ in _STEP2])
    if match is not None:
        repl = dict(_STEP2)[match]
        stem_ = w[: len(w) - len(match)]
        if _measure(stem_) > 0:
            w = stem_ + repl

    # Step 3 (m > 0)
    match = _longest_match(w, [s for s, _ in _STEP3])
    if match is not None:
        repl = dict(_STEP3)[match]
        stem_ = w[: len(w) - len(match)]
        if _measure(stem_) > 0:
            w = stem_ + repl

    # Step 4 (m > 1; "ion" additionally needs the stem to end in s or t)
    match = _longest_match(w, _STEP4)
    if match is not None:
        stem_ = w[: len(w) - len(match)]
        if _measure(stem_) > 1 and (match != "ion" or stem_.endswith(("s", "t"))):
            w = stem_

    # Step 5a
    if w.endswith("e"):
        stem_ = w[:-1]
        m = _measure(stem_)
        if m > 1 or (m == 1 and not _ends_cvc(stem_)):
            w = stem_

    # Step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w[-1] == "l":
        w = w[:-1]

    return w


# ----------------------------- tokenizer oracle -----------------------------

def oracle_tokenize(text):
    """The text pipeline one document at a time, stemming every token.

    Shares the stopword list with the implementation (it is not what it
    checks) but stems with :func:`oracle_stem` and keeps no memo of any kind.
    It folds every text, ASCII or not: decompose, then keep the characters
    of canonical combining class 0.
    """
    decomposed = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in decomposed if unicodedata.combining(ch) == 0).lower()
    return [oracle_stem(tok) for tok in re.findall(r"[a-z0-9]+", text) if tok not in STOPWORDS]


# ------------------------------ ranking oracle ------------------------------

def oracle_rank(doc_tokens, terms, weights, model, k):
    """Score every document, drop zeros, sort by (-score, doc_id), keep k.

    A document's score sums, over the query term occurrences in query
    order, weight * idf * tf * (k1+1) / (tf + k1*(1-b+b*dl/avgdl)) for
    BM25 and weight * tf * idf for TF-IDF; both idfs are floored at zero.
    """
    n = len(doc_tokens)
    avgdl = sum(len(toks) for toks in doc_tokens.values()) / n
    df = {t: sum(1 for toks in doc_tokens.values() if t in toks) for t in set(terms)}
    scored = []
    for d, toks in doc_tokens.items():
        score = 0.0
        for t, w in zip(terms, weights):
            tf = toks.count(t)
            if tf == 0 or w == 0.0:
                continue
            if model == "bm25":
                idf = max(0.0, math.log2((n - df[t] + SMOOTH) / (df[t] + SMOOTH)))
                norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(toks) / avgdl)
                score += w * idf * tf * (BM25_K1 + 1.0) / (tf + norm)
            else:
                score += w * tf * max(0.0, math.log2(n / df[t]))
        if score > 0.0:
            scored.append((d, score))
    scored.sort(key=lambda ds: (-ds[1], ds[0]))
    return scored[:k]


# ----------------------------- expansion oracle -----------------------------

def _top_terms(weights):
    """The FB_TERMS largest positive weights as (term, weight), ties by term."""
    positive = [(t, w) for t, w in weights.items() if w > 0.0]
    return sorted(positive, key=lambda tw: (-tw[1], tw[0]))[:FB_TERMS]


def oracle_expand(method, doc_tokens, query, ranking):
    """RM3 or KLQ expansion straight from the feedback documents' tokens.

    query is (terms, weights) and ranking a sequence of (doc_id, score),
    best first; returns (terms, weights, expanded). Term counts come from
    Counter over each document's tokens, with no index or memo. Every
    float sum runs left to right in the implementation's order: a
    document's terms in sorted order, documents in ranking order, selected
    terms best first. An empty ranking, or feedback with no mass, returns
    the query unchanged with expanded False.
    """
    terms, weights = tuple(query[0]), tuple(query[1])
    unchanged = (terms, weights, False)
    feedback = [
        (score, Counter(doc_tokens[d]), len(doc_tokens[d])) for d, score in ranking[:FB_DOCS]
    ]
    if not feedback:
        return unchanged

    def query_model():
        qtf = {}
        for t, w in zip(terms, weights):
            qtf[t] = qtf.get(t, 0.0) + w
        q_total = _add_left_to_right(qtf.values())
        return {t: w / q_total for t, w in qtf.items()}

    if method == "rm3":
        scores = [score for score, _, _ in feedback]
        lo, hi = min(scores), max(scores)
        priors = [(s - lo) / (hi - lo) if hi > lo else 1.0 for s in scores]
        rm = {}
        for (_, counts, length), prior in zip(feedback, priors):
            if length == 0 or prior == 0.0:
                continue
            for t in sorted(counts):
                rm[t] = rm.get(t, 0.0) + prior * counts[t] / length
        mass = _add_left_to_right(rm.values())
        if mass == 0.0:
            return unchanged
        rm = {t: w / mass for t, w in rm.items()}
        kept = {
            t: (1.0 - RM3_LAMBDA) * p + RM3_LAMBDA * rm.get(t, 0.0)
            for t, p in query_model().items()
        }
        for t, w in _top_terms(rm):
            if t not in kept and RM3_LAMBDA * w > 0.0:
                kept[t] = RM3_LAMBDA * w
        total = _add_left_to_right(kept.values())
        return tuple(kept), tuple(w / total for w in kept.values()), True

    if method == "klq":
        fb_tokens = sum(length for _, _, length in feedback)
        if fb_tokens == 0:
            return unchanged
        fb_cf = {}
        for _, counts, _ in feedback:
            for t in sorted(counts):
                fb_cf[t] = fb_cf.get(t, 0) + counts[t]
        cf = Counter(t for toks in doc_tokens.values() for t in toks)
        total_tokens = sum(len(toks) for toks in doc_tokens.values())
        kl = {}
        for t, c in fb_cf.items():
            if t in terms:
                continue
            p_f, p_c = c / fb_tokens, cf[t] / total_tokens
            kl[t] = p_f * math.log2(p_f / p_c)
        top = _top_terms(kl)
        if not top:
            return unchanged
        ml = query_model()
        e_total = _add_left_to_right(w for _, w in top)
        return (
            tuple(ml) + tuple(t for t, _ in top),
            tuple(0.5 * p for p in ml.values()) + tuple(0.5 * w / e_total for _, w in top),
            True,
        )

    raise ValueError(f"no oracle for expander {method!r}")


# ------------------------- achievable exposure oracle -----------------------

def _add_left_to_right(values):
    total = 0
    for v in values:
        total += v
    return total


def oracle_achievable_exposure(k, m, n_bins=200, max_distinct=10_000):
    """Exact-mode histogram of every m-subset of positions 1..k: (bins, subsets).

    Each subset's DCG weights are added left to right from 0, and the bins
    are filled one value at a time: one bin per distinct value rounded to 12
    places while there are at most max_distinct of them, else n_bins
    equal-width bins over [m lowest weights, m highest weights], with a
    value past either end counted in the end bin. At m = 0 or m = k the
    one subset gives _one_subset_bins.
    """
    weights = [1.0 / math.log2(p + 1) for p in range(1, k + 1)]
    if m in (0, k):
        return _one_subset_bins(weights, m), 1
    values = [
        _add_left_to_right(weights[i] for i in subset)
        for subset in combinations(range(k), m)
    ]
    distinct = {}
    for v in values:
        key = round(v, 12)
        distinct[key] = distinct.get(key, 0) + 1
    if len(distinct) <= max_distinct:
        bins = tuple((v, v, float(c)) for v, c in sorted(distinct.items()))
        return bins, len(values)
    return _equal_width_bins(weights, m, values, n_bins), len(values)


def _equal_width_bins(weights, m, values, n_bins):
    """n_bins equal-width bins of values over [m lowest weights, m highest
    weights], a value past either end counted in the end bin."""
    lo = _add_left_to_right(weights[len(weights) - m :])
    hi = _add_left_to_right(weights[:m])
    width = (hi - lo) / n_bins
    counts = [0] * n_bins
    for v in values:
        i = min(int((v - lo) / width), n_bins - 1)
        counts[max(i, 0)] += 1
    return tuple(
        (lo + i * width, lo + (i + 1) * width, float(c)) for i, c in enumerate(counts)
    )


def _one_subset_bins(weights, m):
    """The histogram of m = 0 or m = k, where one subset takes no position
    or all of them: one bin, its float bounds the subset's sum, count 1.0."""
    total = float(_add_left_to_right(weights[:m]))
    return ((total, total, 1.0),)


def oracle_sampled_values(k, m, samples, seed):
    """Sampled-mode exposure values: the weight sum of each of `samples`
    draws of random.Random(seed).sample over positions 1..k's DCG weights,
    added left to right from 0 in the order the draw took them."""
    weights = [1.0 / math.log2(p + 1) for p in range(1, k + 1)]
    rng = random.Random(seed)
    return [_add_left_to_right(rng.sample(weights, m)) for _ in range(samples)]


def oracle_sampled_histogram(k, m, samples, seed, n_bins=200):
    """Sampled-mode bins: equal-width bins of oracle_sampled_values, each
    count scaled by C(k, m) / samples; _one_subset_bins at m = 0 or m = k."""
    weights = [1.0 / math.log2(p + 1) for p in range(1, k + 1)]
    if m in (0, k):
        return _one_subset_bins(weights, m)
    values = oracle_sampled_values(k, m, samples, seed)
    scale = math.comb(k, m) / samples
    return tuple(
        (low, high, count * scale)
        for low, high, count in _equal_width_bins(weights, m, values, n_bins)
    )


def compensated_sum(values, start=0):
    """The builtin sum of Python 3.12 and later, which adds floats with
    Neumaier compensation; earlier versions add them left to right."""
    total, c = start, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# --------------------------- t distribution oracle --------------------------

def t_two_sided_p_by_quadrature(t, df, steps=200_001):
    """Two-sided p via Simpson integration of the t density over [0, |t|]."""
    t = abs(t)
    const = math.exp(
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
    ) / math.sqrt(df * math.pi)

    def pdf(x):
        return const * (1 + x * x / df) ** (-(df + 1) / 2)

    h = t / (steps - 1)
    acc = pdf(0.0) + pdf(t)
    for i in range(1, steps - 1):
        acc += pdf(i * h) * (4 if i % 2 else 2)
    central = acc * h / 3  # P(0 <= T <= t)
    return 2 * (0.5 - central)
