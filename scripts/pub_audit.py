#!/usr/bin/env python3
"""ci.sh's "no orphan pub item" stage: every pub item has a caller.

    python3 scripts/pub_audit.py

Copies the tree to target/pub-audit/tree and marks every `pub` fn,
method, const, static, struct, enum, trait, type alias, struct field and
enum variant of crates/*/src `#[deprecated(note = "AUDIT:<file>:<n>")]`.
Then it runs `cargo check` on the workspace's lib, bin and example
targets and on the `benchmarks/` crate, into target/pub-audit/target:
rustc warns at every use the compiler resolves to a marked item, naming
the item by its note, and test code is not compiled. The copy rewrites
only the files whose marked content changed and the target persists, so
a repeat run checks incrementally; cargo replays the warnings of the
crates it does not re-check.

An item is reported when no warning calls it (fns, consts and statics,
from a file other than its own), reads it (fields), constructs it
(variants) or names it from another file (types), and, for a type, when
no used item's signature names it either: a type reached only through a
used fn's arguments or result, a used field's type or a used variant's
payload counts as used. Names are matched as words, which errs toward
counting a use. Reads and writes, constructions and match arms are told
apart by the text around each warning, a heuristic that errs toward
counting a use.

Every report must be on ALLOW below, as `Owner::name` (a type, or the
file stem of a free item or a type, the crate's directory for lib.rs)
with the reason a test needs it; an entry the audit does not report,
because its item gained a caller or is gone, is stale. The script exits
1 on either.
"""
import functools
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW = {
    # acme-agg
    'DriftDetectorConfig::standard': 'the drift-detector preset the 200-seed rate tests gate (ROADMAP item 12(a))',
    'DriftDetector::non_finite_dropped': 'count of dropped NaN/inf observations, the evidence the robustness tests read',
    # acme-check: property-test machinery, its callers are tests by design
    'check::Gen': 'acme-check generator every property test draws from: its users are tests by design',
    'Gen::bits': 'acme-check draw: its callers are property tests by design',
    'Gen::u64': 'acme-check draw: its callers are property tests by design',
    'Gen::u32': 'acme-check draw: its callers are property tests by design',
    'Gen::usize': 'acme-check draw: its callers are property tests by design',
    'Gen::f64': 'acme-check draw: its callers are property tests by design',
    'Gen::f32': 'acme-check draw: its callers are property tests by design',
    'Gen::vec': 'acme-check draw: its callers are property tests by design',
    'check::cases': 'acme-check property-test entry point: its callers are tests by design',
    'check::replay': 'acme-check re-run of one failing case, the line a failing property prints',
    # acme (core) and acme-data
    'RecustomizeConfig::quick': 'the drift-loop preset the unit tests and false-alarm rate test run',
    'DriftSpec::standard': 'the drift-stream preset the 200-seed rate tests draw from',
    # acme-distsys: the fault-injection vocabulary only tests script
    'FaultAction::Delay': 'fault-injection action: only the fault-matrix and differential tests script it',
    'FaultAction::Duplicate': 'fault-injection action: only the fault-matrix and differential tests script it',
    'FaultRule::from': 'fault-injection rule source: only tests script targeted faults',
    'FaultRule::to': 'fault-injection rule target: only tests script targeted faults',
    'Payload::Ack': 'the ack ledger kind the fenced benchmark declares a row for; only the ledger and fault tests send it',
    # acme-energy
    'EnergyModel::latency': "Eq. 2's per-epoch latency, which the model property test orders by GPU capacity",
    # acme-nn
    'ParamSet::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'ByteWriter::into_vec': 'writer buffer the codec sweep reseals hand-built hostile bodies from',
    # acme-obs: inspection the recording and observability tests read
    'mem::thread_allocs': "the calling thread's allocation count and largest request, the probe the allocation tests read",
    'mem::ThreadAllocs': 'what mem::thread_allocs returns to the allocation tests',
    'MetricsSnapshot::counter': 'registry inspection the observability and serving tests read',
    'MetricsSnapshot::gauge': 'registry inspection the recording tests read',
    'metrics::reset': 'clears the registry between the recording and observability tests',
    'SpanEvent::field_u64': 'span inspection the recording tests read',
    'Trace::count': 'trace inspection the recording and observability tests read',
    'Trace::spans_named': 'trace inspection the recording tests read',
    'Trace::stable_signature': 'trace inspection the determinism tests compare across reruns',
    'trace::set_detail': 'recording-detail switch the observability tests set per level',
    'trace::set_ring_capacity': 'trace ring bound the recording tests shrink to force overflow',
    # acme-pareto
    'candidate::dominates': 'Pareto-dominance oracle the selection property tests check PFG picks against',
    # acme-runtime
    'Pool::serial': 'the one-thread pool the kernel, aggregation and Phase 1 tests run on',
    # acme-serve
    'Response::device': 'request echo the serving tests group answers by',
    'metrics::requests': 'process-wide serving counter the serving test compares with the registry',
    'metrics::batches': 'process-wide serving counter the serving test compares with the registry',
    'metrics::early_exits': 'process-wide serving counter the serving test compares with the registry',
    'ServeModelConfig::tiny': 'the serving model shape the unit and integration tests build on',
    # acme-store
    'ModelStore::hashes': 'blob listing the serve persist tests compare across thread counts',
    'ModelStore::put': 'raw caller bytes in, digested on their own: the store and persist tests file hand-made and edited blobs with it',
    # acme-tensor: oracles (safety code) and the stages the oracle tests compose
    'Array::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'Graph::backward_with': 'seeded backward: the attention oracle test drives it with a random upstream gradient',
    'gemm::MR': 'narrow register-tile height the GEMM dispatch and property tests straddle',
    'gemm::MR_WIDE': 'wide register-tile height the GEMM dispatch and property tests straddle',
    'gemm::MC': 'row-block size the GEMM property shapes straddle',
    'gemm::KC': 'depth-block size the GEMM property shapes straddle',
    'gemm::gemm_naive': 'f32 GEMM oracle (safety code): the property tests compare the engine against it',
    'gradcheck::gradcheck': 'finite-difference gradient oracle (safety code) the autograd and attention tests check against',
    'qgemm::Quant': "the int8 Kernel impl's associated Extra type, which rustc requires as public as the impl (E0446)",
    'qgemm::quantize_rows': 'int8 stage the GEMM oracle property test composes against gemm_i8_naive',
    'qgemm::quantize_cols': 'int8 stage the GEMM oracle property test composes against gemm_i8_naive',
    'qgemm::dequantize_rows': 'inverse of quantize_rows for the quantization round-trip property',
    'qgemm::dequantize_acc': 'int8 stage the GEMM oracle property test composes against gemm_i8_naive',
    'Packed::scales': 'packed int8 panel scales the GEMM oracle property test dequantizes with',
    'qgemm::gemm_i8_naive': 'int8 GEMM oracle (safety code): the property tests compare the engine against it',
    'qgemm::gemm_i8_prepacked': 'int8 engine entry the GEMM oracle property test drives at 1, 2 and 4 threads',
    # acme-vit
    'TrainConfig::quick': 'the training preset the unit tests run',
    'TrainReport::epoch_losses': 'per-epoch losses the training pins and frozen-feature tests compare bit for bit',
    'VitConfig::tiny': 'the ViT shape the unit and integration tests build on',
    'TeacherTargets::len': 'the teacher-targets test checks the cache covers the transfer set',
    'TeacherTargets::is_empty': 'clippy len_without_is_empty pairs it with len()',
    'TeacherTargets::gather': 'the teacher-targets test compares gathered rows with a per-batch teacher pass bitwise',
    'FrozenFeatures::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'Vit::backbone_param_ids': 'the frozen-feature and header tests check that no backbone parameter moves or holds a gradient',
}

FN = re.compile(r'^(\s*)pub (?:const |unsafe )*(fn|const|static) +([A-Za-z_]\w*)')
TYPE = re.compile(r'^(\s*)pub (struct|enum|trait|type) +([A-Za-z_]\w*)')
BLOCK = re.compile(r'^(\s*)pub(?:\([a-z]+\))? (struct|enum) +([A-Za-z_]\w*)[^;(]*\{\s*$')
IMPL = re.compile(r'^\s*impl(?:<.*?>)? +(?:[\w:<>, ]+ +for +)?([A-Za-z_]\w*)')
FIELD = re.compile(r'^(\s*)pub ([a-z_]\w*) *:')
VARIANT = re.compile(r'^(\s*)([A-Z]\w*)\s*(\(|\{|,|=|$)')
NOTE = re.compile(r'AUDIT:([\w./-]+):(\d+)')


def signature(lines, i, kind):
    """The text of the item starting at lines[i]: a fn's, const's,
    static's or type's up to its body (`{` or `;` outside brackets), a
    field's or variant's up to the `,` that ends it."""
    out, brackets, angles = [], 0, 0
    for line in lines[i:]:
        code = line.split('//')[0]
        for j, ch in enumerate(code):
            if brackets == 0 and (ch in '{;' if kind in ('fn', 'type') else ch == ',' and angles == 0):
                return ''.join(out)
            if ch in '([{':
                brackets += 1
            elif ch in ')]}':
                if brackets == 0:
                    return ''.join(out)
                brackets -= 1
            elif ch == '<':
                angles += 1
            elif ch == '>' and code[j - 1:j] != '-':
                angles -= 1
            out.append(ch)
        out.append(' ')
    return ''.join(out)


def mark(rel, text, items):
    """`text` with every pub item above the file's first #[cfg(test)]
    marked `#[deprecated(note = "AUDIT:<rel>:<k>")]`, appending each to
    `items`. Notes are numbered per file, so an edit renumbers only its
    own file."""
    stem = os.path.splitext(os.path.basename(rel))[0]
    stem = rel.split('/')[1] if stem == 'lib' else stem
    out, block, owner, k = [], None, stem, 0
    lines = text.split('\n')
    for i, line in enumerate(lines):
        if line.startswith('#[cfg(test)]'):
            out.extend(lines[i:])
            break

        def note(kind, own, name, indent):
            nonlocal k
            out.append(f'{indent}#[deprecated(note = "AUDIT:{rel}:{k}")]')
            items[(rel, k)] = dict(file=rel, line=i + 1, kind=kind, item=f'{own}::{name}',
                                  sig=signature(lines, i, kind))
            k += 1

        if block:
            indent = block[1]
            m = (FIELD if block[0] == 'struct' else VARIANT).match(line)
            if line.startswith(indent + '}'):
                block = None
            elif m and len(m.group(1)) == len(indent) + 4:
                note('field' if block[0] == 'struct' else 'variant', block[2], m.group(2), m.group(1))
            out.append(line)
            continue
        m = BLOCK.match(line)
        if m:
            block = (m.group(2), m.group(1), m.group(3))
        m = IMPL.match(line)
        if m and not line.lstrip().startswith('//'):
            owner = m.group(1)
        m = FN.match(line)
        if m:
            note('fn', owner if m.group(1) else stem, m.group(3), m.group(1))
        m = TYPE.match(line)
        if m:
            note('type', stem, m.group(3), m.group(1))
        out.append(line)
    return '\n'.join(out)


def sync(tree):
    """Writes the marked copy of the repo's files into `tree` and returns
    the marked items. A file is written only when its content changed and
    a file the repo no longer lists is deleted, so cargo re-checks only
    what changed since the last run."""
    items, kept = {}, set()
    listed = subprocess.run(['git', 'ls-files', '-co', '--exclude-standard', '-z'],
                            cwd=ROOT, capture_output=True, check=True).stdout.split(b'\0')
    for rel in sorted(f.decode() for f in listed if f):
        src, dst = os.path.join(ROOT, rel), os.path.join(tree, rel)
        if not os.path.isfile(src):
            continue
        data = open(src, 'rb').read()
        if rel.startswith('crates/') and '/src/' in rel and rel.endswith('.rs'):
            data = mark(rel, data.decode(), items).encode()
        kept.add(dst)
        if not os.path.isfile(dst) or open(dst, 'rb').read() != data:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, 'wb') as f:
                f.write(data)
    for dirpath, _, names in os.walk(tree):
        for name in names:
            if os.path.join(dirpath, name) not in kept:
                os.remove(os.path.join(dirpath, name))
    return items


def uses(tree, target, items):
    """The kinds of use (call, read, write, construct, match, name) every
    non-test target makes of each marked item. A call or a naming from
    the item's own file is `self-call` / `self-name`."""
    found = {}
    for cwd, args in [
        (tree, ['--workspace', '--lib', '--bins', '--examples']),
        (os.path.join(tree, 'benchmarks'), ['--offline', '--locked', '--bins']),
    ]:
        run = subprocess.run(
            ['cargo', 'check', '--message-format=json', *args],
            cwd=cwd, env=dict(os.environ, CARGO_TARGET_DIR=target),
            capture_output=True, text=True,
        )
        if run.returncode != 0:
            sys.exit(f'cargo check failed in {cwd}:\n{run.stderr[-4000:]}')
        for raw in run.stdout.splitlines():
            msg = json.loads(raw)
            if msg.get('reason') != 'compiler-message':
                continue
            m = NOTE.search(msg['message']['message'])
            span = m and next(s for s in msg['message']['spans'] if s['is_primary'])
            path = span and os.path.normpath(os.path.join(cwd, span['file_name']))
            if span and not in_use(path, span['line_start']):
                key = (m.group(1), int(m.group(2)))
                it = items[key]
                kind = use_kind(span, it['kind'])
                if kind in ('call', 'name') and os.path.relpath(path, tree) == it['file']:
                    kind = 'self-' + kind
                found.setdefault(key, set()).add(kind)
    return found


@functools.cache
def lines_of(path):
    return open(path).read().split('\n')


def in_use(path, line):
    """Whether 1-based `line` of `path` lies in a `use` declaration: a
    re-export names an item without using it."""
    lines = lines_of(path)[:line]
    for i in range(len(lines) - 1, -1, -1):
        if re.match(r'\s*(pub(\(\w+\))? )?use ', lines[i]):
            return True
        if i < len(lines) - 1 and re.search(r'[;{}]\s*$', lines[i]):
            return False
    return False


def use_kind(span, kind):
    """How one warning's span uses an item of `kind`."""
    if kind == 'fn':
        return 'call'
    if kind == 'type':
        return 'name'
    line = span['text'][0]['text']
    start, end = span['column_start'] - 1, span['column_end'] - 1
    after = line[end:] if span['line_start'] == span['line_end'] else ''
    if kind == 'variant':
        matching = '=>' in after or re.match(r'\s*\|', line) or re.search(
            r'\bmatches!|\bif let\b|\bwhile let\b|\blet\b.*\belse\b', line)
        return 'match' if matching else 'construct'
    if re.match(r'\s*[-+*/|&^]?=(?!=)', after):
        return 'write'
    if '.' in line[start:end] or span['line_start'] != span['line_end']:
        return 'read'
    if re.search(r'\blet\b.*\}\s*=', line):
        return 'read'  # a destructuring pattern
    return 'write' if re.match(r'\s*(:(?!:)|[,}])', after) else 'read'


def used(items, kinds):
    """The keys of the items with a non-test use: a fn, const or static
    called from another file, a field read, a variant constructed; a type
    named in another file or in the signature of a used item."""
    needed = {'fn': 'call', 'field': 'read', 'variant': 'construct', 'type': 'name'}
    done = {key for key, it in items.items() if needed[it['kind']] in kinds.get(key, ())}
    while True:
        signatures = ' '.join(items[key]['sig'] for key in done)
        more = {key for key, it in items.items() if it['kind'] == 'type' and key not in done
                and re.search(r'\b%s\b' % it['item'].split('::')[1], signatures)}
        if not more:
            return done
        done |= more


def main():
    base = os.path.join(ROOT, 'target', 'pub-audit')
    tree = os.path.join(base, 'tree')
    items = sync(tree)
    live = used(items, uses(tree, os.path.join(base, 'target'), items))
    unused = [it for key, it in sorted(items.items()) if key not in live]
    failures = [f"orphan {it['kind']} {it['item']} at {it['file']}:{it['line']}"
                for it in unused if it['item'] not in ALLOW]
    failures += [f'stale allow-list entry (its item has a caller, or is gone): {entry}'
                 for entry in sorted(set(ALLOW) - {it['item'] for it in unused})]
    print('\n'.join(failures + [
        f'{len(items)} pub items, {len(unused)} without a non-test use, '
        f'{len(ALLOW)} allow-list entries, {len(failures)} failures']))
    sys.exit(1 if failures else 0)


if __name__ == '__main__':
    main()
