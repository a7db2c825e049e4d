#!/usr/bin/env python3
"""Summarizes a sampler.c profile: where the process spent its CPU time.

    python3 scripts/profile/report.py prof.<pid>.txt [--top N]

Addresses are looked up in the files the process had mapped, so those
files must be unchanged: a mapped file whose size or modification time
differs from the sampler's record (rebuilt or deleted since) makes the
report exit 2 naming it, instead of misnaming every frame in it.

Symbolizes every sampled address with addr2line (inlined frames included)
and prints four tables, each as a share of all samples:

  leaf       the innermost function of the interrupted instruction;
  inclusive  samples with the function anywhere on the stack;
  operator   the innermost query operator on the stack (the executing
             method of a vedb::query plan node, the push-down merge or a
             storage-side task), or "(no operator)";
  library    samples whose leaf is in a shared library, charged to the
             first function of the program's own code on the stack (the
             standard library's inlined wrappers skipped): the caller that
             asked the library for the work.

A name from a shared library carries the library's name in brackets. A
library without debugging symbols (libc, usually) resolves to its nearest
exported symbol, so read its names as "somewhere in that library": memcpy
can show up as __nss_database_lookup and malloc's internals as
__default_morecore or timer_settime. The library table says who called.

Exits 1 when no frame resolves to a vedb:: function: the build lacked
symbols, or the sampler never reached the program's code.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

# The methods that run one operator's own work. Execute and ExecuteLocal
# are the names these had before the executor passed row batches.
OPERATOR = re.compile(
    r"^vedb::query::(\w+)::(Run|RunLocal|Execute|ExecuteLocal|ExecutePages|"
    r"ExecuteFragment|HandleEbpExec|HandlePsExec)\(")


def load(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            fields = line.split()
            if not fields or fields[0] == "#":
                continue
            if fields[0] == "map":
                start, end, offset = (int(x, 16) for x in fields[1:4])
                stamp = (int(fields[4]), int(fields[5]))
                maps.append((start, end, offset, " ".join(fields[6:]), stamp))
            elif fields[0] == "s" and len(fields) > 1:
                samples.append([int(x, 16) for x in fields[1:]])
    maps.sort()
    return maps, samples


def changed_files(maps):
    """The mapped files whose size or mtime differs from the sampler's."""
    changed = []
    for path, stamp in sorted({(m[3], m[4]) for m in maps}):
        try:
            st = os.stat(path)
            now = (st.st_size, st.st_mtime_ns)
        except OSError:
            now = None
        if now != stamp:
            changed.append(path)
    return changed


def addr2line(module, addresses, system):
    """Maps each address in `module` to its inline chain, innermost first.
    Adds to `system` the names whose code comes from a system header (the
    C++ standard library's, inlined into the program)."""
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", module],
        input="".join("%x\n" % a for a in addresses),
        capture_output=True, text=True, check=False)
    chains, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = chains.setdefault(int(line, 16), [])
            i += 1
            continue
        # Function name, then its file:line.
        if current is not None and line != "??":
            current.append(line)
            if i + 1 < len(lines) and lines[i + 1].startswith("/usr/"):
                system.add(line)
        i += 2
    return chains


def symbolize(maps, samples):
    """Maps each looked-up address (a leaf, or a return address less one)
    to its inline chain, innermost first, and to whether the address is in
    the program rather than in a shared library; also returns the names
    from system headers."""
    starts = [m[0] for m in maps]
    program = maps[0][3] if maps else None
    wanted = collections.defaultdict(set)  # module -> file-relative addrs
    where = {}
    for sample in samples:
        for depth, pc in enumerate(sample):
            # A return address points past its call; look up the call.
            at = pc if depth == 0 else pc - 1
            if at in where:
                continue
            m = bisect.bisect_right(starts, at) - 1
            if m < 0 or at >= maps[m][1]:
                where[at] = None
                continue
            start, _, offset, module, _ = maps[m]
            rel = at - start + offset
            where[at] = (module, rel)
            wanted[module].add(rel)
    resolved, system = {}, set()
    for module, addrs in wanted.items():
        chains = addr2line(module, sorted(addrs), system)
        for rel, chain in chains.items():
            resolved[(module, rel)] = chain
    names, in_program = {}, {}
    for at, loc in where.items():
        chain = resolved.get(loc) if loc else None
        module = loc[0].rsplit("/", 1)[-1] if loc else "?"
        if not chain:
            chain = ["??"]
        in_program[at] = bool(loc) and loc[0] == program
        if not in_program[at]:
            chain = ["%s [%s]" % (name, module) for name in chain]
        names[at] = chain
    return names, in_program, system


def table(title, counts, total, top):
    print("%s (%d samples)" % (title, total))
    for name, n in counts.most_common(top):
        print("  %6.2f%%  %s" % (100.0 * n / total, name[:150]))
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    maps, samples = load(args.profile)
    changed = changed_files(maps)
    if changed:
        for path in changed:
            print("%s changed since it was sampled; profile again" % path,
                  file=sys.stderr)
        return 2
    if not samples:
        print("no samples in %s" % args.profile)
        return 1
    names, in_program, system = symbolize(maps, samples)
    leaf = collections.Counter()
    inclusive = collections.Counter()
    operator = collections.Counter()
    library = collections.Counter()
    resolved_vedb = False
    for sample in samples:
        at = [pc if d == 0 else pc - 1 for d, pc in enumerate(sample)]
        chains = [names[a] for a in at]
        leaf[chains[0][0]] += 1
        if not in_program[at[0]]:
            own = [name for a in at if in_program[a] for name in names[a]]
            caller = next((n for n in own if n not in system),
                          own[0] if own else "(no program frame)")
            library[caller] += 1
        seen = set()
        op = None
        for chain in chains:
            for name in chain:
                seen.add(name)
                if op is None:
                    m = OPERATOR.match(name)
                    if m:
                        op = "%s::%s" % (m.group(1), m.group(2))
        resolved_vedb |= any(n.startswith("vedb::") for n in seen)
        for name in seen:
            inclusive[name] += 1
        operator[op or "(no operator)"] += 1

    total = len(samples)
    unwound = sum(1 for s in samples if len(s) > 1)
    print("%s: %d samples, %.1f%% with a stack above the leaf\n" %
          (args.profile, total, 100.0 * unwound / total))
    table("leaf", leaf, total, args.top)
    table("inclusive", inclusive, total, args.top)
    table("innermost query operator", operator, total, args.top)
    table("library leaves by calling program function (%.1f%% of samples)" %
          (100.0 * sum(library.values()) / total), library, total, args.top)
    if not resolved_vedb:
        print("no frame resolved to a vedb:: function")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
