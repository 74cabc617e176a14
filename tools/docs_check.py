#!/usr/bin/env python3
"""Docs drift gate: every user-facing surface must be documented.

Two surfaces are checked against README.md, DESIGN.md, and
EXPERIMENTS.md (an item passes if it appears in at least one of them):

  1. every `--flag` accepted by an `awesim_*` CLI binary.  The CLIs are
     discovered from the checked-in CMakeLists (`add_executable(awesim_*
     <main>.cpp)`), and the flags are harvested from string literals in
     each main source, so no build is needed for this half;
  2. every bench case name registered with the unified runner, taken
     from a built `awesim_bench --list` (pass --bench-bin; the CI leg
     builds the runner first).

A third check runs the other way: every `<Name>Options::<field>` the
docs mention must be declared in `struct <Name>Options` under src/, and
every `Session::`, `Snapshot::`, `SnapshotStore::` or `TimingGraph::`
member they mention must be declared in that class's body in its
header, so an option or accessor that is deleted from the code cannot
live on in the docs.

A fourth holds the span taxonomy to the code both ways: every
`AWESIM_TRACE_SPAN("...")` literal under src/ must be listed in the
taxonomy comment of src/obs/trace.h and named (in backticks) in
DESIGN.md, and every taxonomy entry must be a span some source opens.

Rationale: the repo's docs are contracts, not prose -- EXPERIMENTS.md
promises one protocol entry per bench family and README promises a
troubleshooting row per diagnostic surface.  A new flag or bench case
that lands without a docs mention, or an option the docs still name
after the code dropped it, is exactly the drift this gate turns into a
red CI leg.

Usage:
    docs_check.py --source-dir . --bench-bin build/bench/awesim_bench

Exit codes: 0 all surfaces documented, every named option and member
declared and the span taxonomy in step with the code, 1 something
missing, stale or out of step, 2 usage or environment error.  Stdlib
only.
"""

import argparse
import os
import re
import subprocess
import sys

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

# A user-facing flag literal in a CLI main: --word, possibly with
# hyphens, as it appears inside usage strings and the arg parser.
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")

# add_executable(awesim_<name> <main>.cpp) -- only single-source CLI
# binaries; libraries and test targets never match.
ADD_EXE_RE = re.compile(
    r"add_executable\(\s*(awesim_[A-Za-z0-9_]+)\s+([A-Za-z0-9_./]+\.cpp)\s*\)")


def discover_clis(source_dir):
    """Map CLI target name -> absolute path of its main source."""
    clis = {}
    for root, dirs, files in os.walk(source_dir):
        dirs[:] = [d for d in dirs
                   if not d.startswith(".") and d != "build"
                   and not d.startswith("build-")]
        if "CMakeLists.txt" not in files:
            continue
        path = os.path.join(root, "CMakeLists.txt")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for target, main in ADD_EXE_RE.findall(text):
            main_path = os.path.join(root, main)
            if os.path.exists(main_path):
                clis[target] = main_path
    return clis


def harvest_flags(main_path):
    """Every distinct --flag literal in the CLI's main source."""
    with open(main_path, encoding="utf-8") as fh:
        text = fh.read()
    return sorted(set(FLAG_RE.findall(text)))


# A docs mention of an option field: `ReduceOptions::tolerance`.
OPTION_MENTION_RE = re.compile(
    r"\b([A-Z][A-Za-z0-9]*Options)::([a-z_][a-z0-9_]*)\b")

# `struct <Name>Options {` -- the declaration whose body is searched.
STRUCT_RE = re.compile(
    r"\bstruct\s+([A-Z][A-Za-z0-9]*Options)\s*(?:final\s*)?\{")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


# The classes whose members the docs name as API: `Session::worst_paths`.
MEMBER_CLASSES = ("Session", "Snapshot", "SnapshotStore", "TimingGraph")
MEMBER_MENTION_RE = re.compile(
    r"\b(" + "|".join(MEMBER_CLASSES) + r")::([A-Za-z_][A-Za-z0-9_]*)\b")
CLASS_RE = re.compile(
    r"\bclass\s+(" + "|".join(MEMBER_CLASSES) + r")\s*(?:final\s*)?"
    r"(?::[^{;]*)?\{")


def declaration_bodies(source_dir, decl_re, suffixes):
    """Map name -> concatenated bodies of every declaration `decl_re`
    matches (group 1 the name, ending at the opening brace) in a file
    under src/ with one of `suffixes`, comments stripped."""
    bodies = {}
    for root, dirs, files in os.walk(os.path.join(source_dir, "src")):
        for name in files:
            if not name.endswith(suffixes):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                text = COMMENT_RE.sub("", fh.read())
            for m in decl_re.finditer(text):
                depth, i = 1, m.end()
                while i < len(text) and depth:
                    depth += {"{": 1, "}": -1}.get(text[i], 0)
                    i += 1
                bodies[m.group(1)] = bodies.get(m.group(1), "") + \
                    text[m.end():i]
    return bodies


def stale_mentions(docs, source_dir):
    """`<Name>Options::<field>` mentions with no such declared member, and
    `<Class>::<member>` mentions (MEMBER_CLASSES) whose class body in a
    header declares no such member."""
    kinds = [(OPTION_MENTION_RE,
              declaration_bodies(source_dir, STRUCT_RE, (".h", ".cpp")),
              "struct", "under src/"),
             (MEMBER_MENTION_RE,
              declaration_bodies(source_dir, CLASS_RE, (".h",)),
              "class", "in a header under src/")]
    stale = []
    for doc, text in docs.items():
        for mention_re, bodies, keyword, where in kinds:
            for owner, member in sorted(set(mention_re.findall(text))):
                body = bodies.get(owner, "")
                if not re.search(rf"\b{member}\b\s*[=;{{(\[]", body):
                    stale.append(f"{doc} names {owner}::{member}, which no "
                                 f"{keyword} {owner} {where} declares")
    return stale


SPAN_RE = re.compile(r'AWESIM_TRACE_SPAN\(\s*"([^"]+)"\s*\)')
TAXONOMY_HEAD = "// The canonical span taxonomy"
# A taxonomy entry: `//   <phase.name>  <what it times>`; continuation
# lines are indented further and never match.
TAXONOMY_ENTRY_RE = re.compile(r"^//   ([a-z][a-z0-9_]*\.[a-z0-9_.]+)(?:\s|$)")


def code_spans(source_dir):
    """Every span name a source under src/ opens, comments stripped."""
    spans = set()
    for root, dirs, files in os.walk(os.path.join(source_dir, "src")):
        for name in files:
            if not name.endswith((".h", ".cpp")):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                spans.update(SPAN_RE.findall(COMMENT_RE.sub("", fh.read())))
    return spans


def taxonomy_spans(source_dir):
    """The span names listed in src/obs/trace.h's taxonomy comment: the
    entry lines of the comment block that opens at TAXONOMY_HEAD."""
    path = os.path.join(source_dir, "src", "obs", "trace.h")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(TAXONOMY_HEAD)), None)
    if start is None:
        return None
    spans = set()
    for line in lines[start + 1:]:
        if not line.startswith("//") or line.strip() == "//":
            break
        m = TAXONOMY_ENTRY_RE.match(line)
        if m:
            spans.add(m.group(1))
    return spans


def span_drift(design_text, source_dir):
    """Spans missing from the taxonomy or DESIGN.md, and taxonomy
    entries no source opens."""
    code = code_spans(source_dir)
    taxonomy = taxonomy_spans(source_dir)
    if taxonomy is None:
        return [f"src/obs/trace.h has no '{TAXONOMY_HEAD}' comment"], 0
    drift = []
    for span in sorted(code - taxonomy):
        drift.append(f"span {span} is not in the src/obs/trace.h taxonomy")
    for span in sorted(code):
        if f"`{span}`" not in design_text:
            drift.append(f"span {span} is not named in DESIGN.md")
    for span in sorted(taxonomy - code):
        drift.append(f"taxonomy entry {span} is opened by no source "
                     "under src/")
    return drift, len(code)


def bench_names(bench_bin):
    """First token of each `awesim_bench --list` line."""
    proc = subprocess.run([bench_bin, "--list"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print(f"docs_check: {bench_bin} --list failed:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    names = []
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts:
            names.append(parts[0])
    if not names:
        print(f"docs_check: {bench_bin} --list printed no cases",
              file=sys.stderr)
        sys.exit(2)
    return names


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--source-dir", default=".")
    ap.add_argument("--bench-bin", default=None,
                    help="built awesim_bench; omit to skip the bench-name "
                    "half (the CI leg always passes it)")
    args = ap.parse_args()

    docs = {}
    for name in DOC_FILES:
        path = os.path.join(args.source_dir, name)
        if not os.path.exists(path):
            print(f"docs_check: missing doc file {name}", file=sys.stderr)
            return 2
        with open(path, encoding="utf-8") as fh:
            docs[name] = fh.read()
    corpus = "\n".join(docs.values())

    clis = discover_clis(args.source_dir)
    if not clis:
        print("docs_check: no awesim_* CLI targets discovered",
              file=sys.stderr)
        return 2

    missing = []
    checked = 0
    for target in sorted(clis):
        for flag in harvest_flags(clis[target]):
            checked += 1
            if flag not in corpus:
                missing.append(f"{target} flag {flag}")

    if args.bench_bin:
        for name in bench_names(args.bench_bin):
            checked += 1
            if name not in corpus:
                missing.append(f"bench case {name}")
    else:
        print("docs_check: note -- no --bench-bin, bench names unchecked")

    stale = stale_mentions(docs, args.source_dir)
    drift, span_count = span_drift(docs["DESIGN.md"], args.source_dir)
    checked += span_count

    print(f"docs_check: {checked} surfaces checked against "
          f"{'/'.join(DOC_FILES)} "
          f"({len(clis)} CLIs: {', '.join(sorted(clis))})")
    if missing:
        for item in missing:
            print(f"docs_check: UNDOCUMENTED -- {item}", file=sys.stderr)
        print(f"docs_check: FAIL -- {len(missing)} undocumented "
              "surface(s); mention each in README.md, DESIGN.md, or "
              "EXPERIMENTS.md", file=sys.stderr)
    for item in stale:
        print(f"docs_check: STALE -- {item}", file=sys.stderr)
    if stale:
        print(f"docs_check: FAIL -- {len(stale)} stale member mention(s)",
              file=sys.stderr)
    for item in drift:
        print(f"docs_check: SPAN -- {item}", file=sys.stderr)
    if drift:
        print(f"docs_check: FAIL -- {len(drift)} span taxonomy "
              "mismatch(es)", file=sys.stderr)
    if missing or stale or drift:
        return 1
    print("docs_check: OK -- every surface documented, every named "
          f"option and member declared, {span_count} spans in the "
          "taxonomy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
