"""Independent straight-from-the-formula oracles used by the test suite.

Everything here works on raw token lists and plain arithmetic so the
implementations under test share no code with the oracles. The
predictor oracle covers a single category described by a doc_id->group
mapping. The ranking oracle scores every document on its own and keeps
the implementation's arithmetic order, so its scores compare exactly.
"""

import math
from collections import Counter

SMOOTH = 0.5
CORI_B = 0.4
CORI_DF_BASE = 50.0
CORI_DF_SCALE = 150.0
BM25_K1 = 1.2
BM25_B = 0.75


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
                e += qw * sum(tfidf[:k]) / k
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
            acc = sum(
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
            acc = sum(
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

    raise ValueError(f"no oracle for predictor {name!r}")


def oracle_distribution(raw, groups):
    """Floor at zero then divide by the sum; uniform when all mass is zero."""
    floored = [max(0.0, raw[g]) for g in groups]
    total = sum(floored)
    if total == 0.0:
        return [1.0 / len(groups)] * len(groups)
    return [v / total for v in floored]


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
