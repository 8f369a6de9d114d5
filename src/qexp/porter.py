"""Porter suffix-stripping stemmer (classic 1980 rule tables).

Within each step the longest matching suffix is selected and its
condition tested; whether or not the rule then fires, the step is over.
Steps 2-4 look a word's last two letters up in the step's table, which
lists the suffixes with that ending longest first.

The conditions read the word's class string: one letter per character,
"v" for a vowel and "c" for a consonant. a, e, i, o and u are vowels, y
is a vowel after a consonant, and every other character (digits,
uppercase, punctuation, non-ASCII) is a consonant, which leaves
digit-bearing tokens untouched; an ASCII word is translated through a
plain dict, the table str.translate reads fastest. A character's class
depends only on the characters before it, so the class string of a stem
is a prefix of the word's, m in [C](VC)^m[V] is the count of "vc" in it,
and a rule's rewrite appends its replacement's class string, fixed
because no replacement holds a y.
"""

from __future__ import annotations


class _ClassTable(dict):
    """str.translate table: code point -> "v", "c" or "y" (decided later)."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASS = _ClassTable.fromkeys(range(128), "c")
_CLASS.update({ord(ch): "v" for ch in "aeiou"})
_CLASS[ord("y")] = "y"
_ASCII_CLASS = dict(_CLASS)


def _classes(word: str) -> str:
    cv = word.translate(_ASCII_CLASS if word.isascii() else _CLASS)
    i = cv.find("y")
    while i >= 0:
        # y is a consonant first or after a vowel, a vowel after a consonant
        cv = cv[:i] + ("c" if i == 0 or cv[i - 1] == "v" else "v") + cv[i + 1:]
        i = cv.find("y", i + 1)
    return cv


def _ends_cvc(w: str, cv: str, n: int) -> bool:
    # *o condition on w[:n]: consonant-vowel-consonant, the last not w, x or y.
    return n >= 3 and cv[n - 3:n] == "cvc" and w[n - 1] not in "wxy"


def _by_ending(table: dict[str, str], least_m: int) -> dict[str, list[tuple]]:
    """Index suffix -> replacement rules by their last two letters, longest first."""
    index: dict[str, list[tuple]] = {}
    for suffix, repl in sorted(table.items(), key=lambda rule: len(rule[0]), reverse=True):
        rule = (suffix, len(suffix), repl, _classes(repl), least_m, suffix == "ion")
        index.setdefault(suffix[-2:], []).append(rule)
    return index


_STEP2 = {
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
}
_STEP3 = {
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
}
_STEP4 = dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), "")
_STEPS_2_TO_4 = (_by_ending(_STEP2, 1), _by_ending(_STEP3, 1), _by_ending(_STEP4, 2))


def stem(word: str) -> str:
    if len(word) <= 1:
        return word
    cv = _classes(word)

    # Step 1a
    w = word
    if w[-1] == "s" and w.endswith(("sses", "ies")):
        w = w[:-2]
    elif w[-1] == "s" and w[-2] != "s":
        w = w[:-1]

    # Step 1b
    if w[-1] == "d" and w.endswith("eed"):
        if cv.count("vc", 0, len(w) - 3) > 0:
            w = w[:-1]
    elif w.endswith(("ed", "ing")):
        n = len(w) - (2 if w[-1] == "d" else 3)
        if "v" in cv[:n]:
            w = w[:n]
            # a *o stem never ends in a double consonant, so the rule order
            # "at/bl/iz, double consonant, m=1 and *o" needs no third branch
            if w.endswith(("at", "bl", "iz")) or (
                cv.count("vc", 0, n) == 1 and _ends_cvc(w, cv, n)
            ):
                w += "e"
                cv = cv[:n] + "v"
            elif n >= 2 and w[-1] == w[-2] and cv[n - 1] == "c" and w[-1] not in "lsz":
                w = w[:-1]

    # Step 1c
    if w[-1] == "y" and "v" in cv[:len(w) - 1]:
        w = w[:-1] + "i"
        cv = cv[:len(w) - 1] + "v"

    # Steps 2 and 3 (m > 0), step 4 (m > 1; "ion" needs a stem ending in s or t)
    for table in _STEPS_2_TO_4:
        for suffix, size, repl, repl_cv, least_m, ion in table.get(w[-2:], ()):
            if w.endswith(suffix):
                n = len(w) - size
                if cv.count("vc", 0, n) >= least_m and (not ion or w[n - 1] in "st"):
                    w = w[:n] + repl
                    cv = cv[:n] + repl_cv
                break

    # Step 5a
    if w[-1] == "e":
        n = len(w) - 1
        m = cv.count("vc", 0, n)
        if m > 1 or (m == 1 and not _ends_cvc(w, cv, n)):
            w = w[:n]

    # Step 5b: a double consonant ending in l is ll
    if w.endswith("ll") and cv.count("vc", 0, len(w)) > 1:
        w = w[:-1]

    return w
