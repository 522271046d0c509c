//! Binary codecs for everything the durability layer puts on disk.
//!
//! Builds on the primitive `Encoder`/`Decoder` in `hdl_base::serialize`
//! (which covers symbols and ground atoms) and adds the rule AST, the
//! WAL record set, and the checkpoint image. All decoders are *total*:
//! arbitrary bytes produce `Err(Error::Invalid)` — never a panic and
//! never an unvalidated symbol or absurd allocation — because the WAL
//! tail after a crash is untrusted input by construction.

use hdl_base::serialize::{
    decode_ground_atom, decode_symbol, decode_symbols, encode_ground_atom, encode_symbols,
};
use hdl_base::{crc32, Atom, Decoder, Encoder, Error, GroundAtom, Result, SymbolTable};
use hdl_base::{Database, Term, Var};
use hdl_core::{HypRule, Op, Premise, Rulebase};

/// Upper bound on a decoded variable index. `num_vars` sizes per-rule
/// binding buffers, so a corrupt huge index would turn into a huge
/// allocation downstream even though the bytes passed their CRC.
const MAX_VAR_INDEX: u32 = 1 << 20;

// ---------------------------------------------------------------------
// Rule AST
// ---------------------------------------------------------------------

fn encode_term(enc: &mut Encoder, term: Term) {
    match term {
        Term::Const(c) => {
            enc.u8(0);
            enc.u32(c.0);
        }
        Term::Var(v) => {
            enc.u8(1);
            enc.u32(v.0);
        }
    }
}

fn decode_term(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<Term> {
    match dec.u8()? {
        0 => Ok(Term::Const(decode_symbol(dec, symbols)?)),
        1 => {
            let idx = dec.u32()?;
            if idx > MAX_VAR_INDEX {
                return Err(Error::Invalid(format!("variable index {idx} out of range")));
            }
            Ok(Term::Var(Var(idx)))
        }
        tag => Err(Error::Invalid(format!("unknown term tag {tag}"))),
    }
}

fn encode_atom(enc: &mut Encoder, atom: &Atom) {
    enc.u32(atom.pred.0);
    enc.u32(atom.args.len() as u32);
    for &t in &atom.args {
        encode_term(enc, t);
    }
}

fn decode_atom(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<Atom> {
    let pred = decode_symbol(dec, symbols)?;
    let arity = dec.len_prefix(5)?;
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        args.push(decode_term(dec, symbols)?);
    }
    Ok(Atom::new(pred, args))
}

fn encode_premise(enc: &mut Encoder, premise: &Premise) {
    match premise {
        Premise::Atom(a) => {
            enc.u8(0);
            encode_atom(enc, a);
        }
        Premise::Neg(a) => {
            enc.u8(1);
            encode_atom(enc, a);
        }
        Premise::Hyp { goal, adds, dels } => {
            // Tag 2 is the historical adds-only layout; emitting it when
            // there are no deletions keeps positive-only programs
            // byte-identical to logs written before `del:` existed.
            if dels.is_empty() {
                enc.u8(2);
                encode_atom(enc, goal);
                enc.u32(adds.len() as u32);
                for a in adds {
                    encode_atom(enc, a);
                }
            } else {
                enc.u8(3);
                encode_atom(enc, goal);
                enc.u32(adds.len() as u32);
                for a in adds {
                    encode_atom(enc, a);
                }
                enc.u32(dels.len() as u32);
                for a in dels {
                    encode_atom(enc, a);
                }
            }
        }
    }
}

fn decode_premise(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<Premise> {
    match dec.u8()? {
        0 => Ok(Premise::Atom(decode_atom(dec, symbols)?)),
        1 => Ok(Premise::Neg(decode_atom(dec, symbols)?)),
        2 => {
            let goal = decode_atom(dec, symbols)?;
            let n = dec.len_prefix(8)?;
            if n == 0 {
                return Err(Error::Invalid(
                    "hypothetical premise with empty add list".into(),
                ));
            }
            let mut adds = Vec::with_capacity(n);
            for _ in 0..n {
                adds.push(decode_atom(dec, symbols)?);
            }
            Ok(Premise::Hyp {
                goal,
                adds,
                dels: Vec::new(),
            })
        }
        3 => {
            let goal = decode_atom(dec, symbols)?;
            let na = dec.len_prefix(8)?;
            let mut adds = Vec::with_capacity(na);
            for _ in 0..na {
                adds.push(decode_atom(dec, symbols)?);
            }
            let nd = dec.len_prefix(8)?;
            if nd == 0 {
                // Tag 3 exists only for del-carrying premises; an empty
                // del list would have been written as tag 2.
                return Err(Error::Invalid(
                    "hypothetical premise with empty del list".into(),
                ));
            }
            let mut dels = Vec::with_capacity(nd);
            for _ in 0..nd {
                dels.push(decode_atom(dec, symbols)?);
            }
            Ok(Premise::Hyp { goal, adds, dels })
        }
        tag => Err(Error::Invalid(format!("unknown premise tag {tag}"))),
    }
}

/// Encodes one rule (head, premises; `num_vars` is derived, not stored).
pub fn encode_rule(enc: &mut Encoder, rule: &HypRule) {
    encode_atom(enc, &rule.head);
    enc.u32(rule.premises.len() as u32);
    for p in &rule.premises {
        encode_premise(enc, p);
    }
}

/// Decodes one rule; `num_vars` is recomputed by [`HypRule::new`] so it
/// can never disagree with the premises.
pub fn decode_rule(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<HypRule> {
    let head = decode_atom(dec, symbols)?;
    let n = dec.len_prefix(6)?;
    let mut premises = Vec::with_capacity(n);
    for _ in 0..n {
        premises.push(decode_premise(dec, symbols)?);
    }
    Ok(HypRule::new(head, premises))
}

/// Encodes a rulebase in source order.
pub fn encode_rulebase(enc: &mut Encoder, rulebase: &Rulebase) {
    enc.u32(rulebase.len() as u32);
    for rule in rulebase.iter() {
        encode_rule(enc, rule);
    }
}

/// Decodes a rulebase written by [`encode_rulebase`].
pub fn decode_rulebase(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<Rulebase> {
    let n = dec.len_prefix(10)?;
    let mut rb = Rulebase::new();
    for _ in 0..n {
        rb.push(decode_rule(dec, symbols)?);
    }
    Ok(rb)
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

/// One WAL record, as replayed from the log.
///
/// Records are decoded against the symbol table *as of that point in the
/// log*: a `Symbols` record extends the table, and every later record may
/// reference the new ids. This mirrors how the live session interns
/// before mutating, so replay reproduces identical dense symbol ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Names interned since the last record, in interning order.
    Symbols(Vec<String>),
    /// One session op, replayed through [`hdl_core::Session::apply`].
    Op(Op),
}

const TAG_SYMBOLS: u8 = 0;
const TAG_PROGRAM: u8 = 1;
const TAG_RETRACT: u8 = 2;
const TAG_ASSUME: u8 = 3;
const TAG_POP: u8 = 4;

/// Encodes a `Symbols` record payload from borrowed names.
pub fn encode_symbols_record(names: &[&str]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(TAG_SYMBOLS);
    enc.u32(names.len() as u32);
    for name in names {
        enc.str(name);
    }
    enc.finish()
}

/// Encodes the record payload of one op.
pub fn encode_op(op: &Op) -> Vec<u8> {
    let mut enc = Encoder::new();
    match op {
        Op::Program { rules, facts } => {
            enc.u8(TAG_PROGRAM);
            enc.u32(rules.len() as u32);
            for r in rules {
                encode_rule(&mut enc, r);
            }
            encode_fact_list(&mut enc, facts);
        }
        Op::Retract(fact) => {
            enc.u8(TAG_RETRACT);
            encode_ground_atom(&mut enc, fact);
        }
        Op::Assume(facts) => {
            enc.u8(TAG_ASSUME);
            encode_fact_list(&mut enc, facts);
        }
        Op::Pop => enc.u8(TAG_POP),
    }
    enc.finish()
}

fn encode_fact_list(enc: &mut Encoder, facts: &[GroundAtom]) {
    enc.u32(facts.len() as u32);
    for f in facts {
        encode_ground_atom(enc, f);
    }
}

fn decode_fact_list(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<Vec<GroundAtom>> {
    let n = dec.len_prefix(8)?;
    let mut facts = Vec::with_capacity(n);
    for _ in 0..n {
        facts.push(decode_ground_atom(dec, symbols)?);
    }
    Ok(facts)
}

/// Decodes one WAL record payload against the current symbol table.
///
/// Trailing garbage after the record body is corruption (every payload
/// is framed exactly), so it is rejected rather than ignored.
pub fn decode_record(payload: &[u8], symbols: &SymbolTable) -> Result<WalRecord> {
    let mut dec = Decoder::new(payload);
    let record = match dec.u8()? {
        TAG_SYMBOLS => {
            let n = dec.len_prefix(1)?;
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(dec.str()?);
            }
            WalRecord::Symbols(names)
        }
        TAG_PROGRAM => {
            let nrules = dec.len_prefix(10)?;
            let mut rules = Vec::with_capacity(nrules);
            for _ in 0..nrules {
                rules.push(decode_rule(&mut dec, symbols)?);
            }
            let facts = decode_fact_list(&mut dec, symbols)?;
            WalRecord::Op(Op::Program { rules, facts })
        }
        TAG_RETRACT => WalRecord::Op(Op::Retract(decode_ground_atom(&mut dec, symbols)?)),
        TAG_ASSUME => WalRecord::Op(Op::Assume(decode_fact_list(&mut dec, symbols)?)),
        TAG_POP => WalRecord::Op(Op::Pop),
        tag => return Err(Error::Invalid(format!("unknown WAL record tag {tag}"))),
    };
    if !dec.is_done() {
        return Err(Error::Invalid(format!(
            "{} trailing bytes after WAL record",
            dec.remaining()
        )));
    }
    Ok(record)
}

// ---------------------------------------------------------------------
// Checkpoint image
// ---------------------------------------------------------------------

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"HDLCKPT1";
/// Current checkpoint format version (see [`encode_checkpoint`]).
pub const CKPT_VERSION: u32 = 2;
/// The overlay-DAG layout older lineages hold, read by [`decode_v1_state`].
const CKPT_VERSION_V1: u32 = 1;

/// Everything a checkpoint restores: the full session state plus the
/// snapshot-epoch watermark active when it was taken.
#[derive(Debug)]
pub struct CheckpointState {
    /// The checkpoint's own epoch (WAL files are named after it).
    pub epoch: u64,
    /// Snapshot-epoch watermark: recovery advances the global snapshot
    /// counter past this so restored processes never reuse an epoch.
    pub watermark: u64,
    /// Interned symbol table, in interning order.
    pub symbols: SymbolTable,
    /// The rulebase, in source order.
    pub rulebase: Rulebase,
    /// The base database.
    pub base: Database,
    /// Assumption frames, bottom-up.
    pub frames: Vec<Vec<GroundAtom>>,
}

/// Serializes a full checkpoint image, including magic and CRC trailer.
///
/// After the version, epoch, watermark, symbols and rulebase come the
/// base as one fact list in [`Database::iter`] order, then the frame
/// count and each frame as the session holds it — the fact lists the
/// WAL's `Assume` records use. A frame keeps the facts it repeats from
/// the base or an earlier frame, so a `retract` of the base copy leaves
/// them holding.
pub fn encode_checkpoint(
    epoch: u64,
    watermark: u64,
    symbols: &SymbolTable,
    rulebase: &Rulebase,
    base: &Database,
    frames: &[Vec<GroundAtom>],
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u32(CKPT_VERSION);
    enc.u64(epoch);
    enc.u64(watermark);
    encode_symbols(&mut enc, symbols);
    encode_rulebase(&mut enc, rulebase);
    encode_fact_list(&mut enc, &base.iter_facts().collect::<Vec<_>>());
    enc.u32(frames.len() as u32);
    for frame in frames {
        encode_fact_list(&mut enc, frame);
    }

    let payload = enc.finish();
    let mut bytes = Vec::with_capacity(CKPT_MAGIC.len() + payload.len() + 4);
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes
}

/// Decodes and verifies a checkpoint image (magic, CRC, then structure).
/// Version 1 images, which older releases wrote, are read too.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointState> {
    if bytes.len() < CKPT_MAGIC.len() + 4 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(Error::Invalid("not a checkpoint file".into()));
    }
    let payload = &bytes[CKPT_MAGIC.len()..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return Err(Error::Invalid("checkpoint checksum mismatch".into()));
    }

    let mut dec = Decoder::new(payload);
    let version = dec.u32()?;
    if version != CKPT_VERSION && version != CKPT_VERSION_V1 {
        return Err(Error::Invalid(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let epoch = dec.u64()?;
    let watermark = dec.u64()?;
    let symbols = decode_symbols(&mut dec)?;
    let rulebase = decode_rulebase(&mut dec, &symbols)?;
    let (base, frames) = if version == CKPT_VERSION_V1 {
        decode_v1_state(&mut dec, &symbols)?
    } else {
        let base = decode_fact_list(&mut dec, &symbols)?.into_iter().collect();
        let n = dec.len_prefix(4)?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            frames.push(decode_fact_list(&mut dec, &symbols)?);
        }
        (base, frames)
    };
    if !dec.is_done() {
        return Err(Error::Invalid("trailing bytes after checkpoint".into()));
    }

    Ok(CheckpointState {
        epoch,
        watermark,
        symbols,
        rulebase,
        base,
        frames,
    })
}

/// Reads the base and frames of a version 1 image, which stored them as
/// a chain in an overlay DAG: a table of distinct facts; nodes in
/// topological order, each a root (tag 0, its fact indexes) or a delta
/// over an earlier node (tag 1, added indexes; tag 2, added then removed
/// indexes); then the chain, one node ordinal for the base and one per
/// frame. The base is chain node 0 and frame `i` is node `i` minus node
/// `i - 1`, both in fact-table order.
///
/// The DAG stored fact *sets*, so a frame fact already present below the
/// frame was lost when the image was written; this reads back what was
/// kept.
fn decode_v1_state(
    dec: &mut Decoder<'_>,
    symbols: &SymbolTable,
) -> Result<(Database, Vec<Vec<GroundAtom>>)> {
    let facts = decode_fact_list(dec, symbols)?;
    let read_indexes = |dec: &mut Decoder<'_>| -> Result<Vec<u32>> {
        let n = dec.len_prefix(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let i = dec.u32()?;
            if i as usize >= facts.len() {
                return Err(Error::Invalid(format!(
                    "fact index {i} out of range ({} facts)",
                    facts.len()
                )));
            }
            out.push(i);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    };
    let nnodes = dec.len_prefix(6)?;
    let mut nodes: Vec<Vec<u32>> = Vec::with_capacity(nnodes);
    for pos in 0..nnodes {
        let set = match dec.u8()? {
            0 => read_indexes(dec)?,
            tag @ (1 | 2) => {
                let anc = dec.u32()? as usize;
                let Some(anc) = nodes.get(anc) else {
                    return Err(Error::Invalid(format!(
                        "DAG node {pos} references ancestor {anc} out of order"
                    )));
                };
                let adds = read_indexes(dec)?;
                let dels = if tag == 2 {
                    read_indexes(dec)?
                } else {
                    Vec::new()
                };
                let mut set: Vec<u32> = anc
                    .iter()
                    .copied()
                    .filter(|i| dels.binary_search(i).is_err())
                    .chain(adds)
                    .collect();
                set.sort_unstable();
                set.dedup();
                set
            }
            tag => {
                return Err(Error::Invalid(format!(
                    "unknown DAG node tag {tag} at node {pos}"
                )))
            }
        };
        nodes.push(set);
    }
    let chain_len = dec.len_prefix(4)?;
    if chain_len == 0 {
        return Err(Error::Invalid("checkpoint chain is empty".into()));
    }
    let mut chain = Vec::with_capacity(chain_len);
    for _ in 0..chain_len {
        let ordinal = dec.u32()? as usize;
        let node = nodes
            .get(ordinal)
            .ok_or_else(|| Error::Invalid(format!("chain ordinal {ordinal} out of range")))?;
        chain.push(node);
    }
    let fact = |&i: &u32| facts[i as usize].clone();
    let base = chain[0].iter().map(fact).collect();
    let frames = chain
        .windows(2)
        .map(|w| {
            w[1].iter()
                .filter(|i| w[0].binary_search(i).is_err())
                .map(fact)
                .collect()
        })
        .collect();
    Ok((base, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_core::parse_program;

    fn sample() -> (SymbolTable, Rulebase, Database, Vec<Vec<GroundAtom>>) {
        let mut symbols = SymbolTable::new();
        let program = parse_program(
            "edge(a, b). edge(b, c).\n\
             tc(X, Y) :- edge(X, Y).\n\
             tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
             blocked(X) :- ~tc(X, c).\n\
             opens(X) :- tc(a, c)[add: edge(X, a), edge(c, X)].\n\
             cut(X) :- blocked(X)[del: edge(a, b)].\n\
             swap(X) :- tc(X, c)[add: edge(X, a), del: edge(b, c)].",
            &mut symbols,
        )
        .unwrap();
        let (rules, facts) = hdl_core::split_facts(program);
        let mut base = Database::new();
        for f in &facts {
            base.insert(f.clone());
        }
        let d = symbols.intern("d");
        let e = symbols.intern("e");
        let edge = symbols.lookup("edge").unwrap();
        let frames = vec![
            vec![GroundAtom::new(edge, vec![d, e])],
            vec![], // deliberately empty frame
            vec![GroundAtom::new(edge, vec![e, d])],
        ];
        (symbols, rules, base, frames)
    }

    #[test]
    fn rulebase_roundtrips_exactly() {
        let (symbols, rules, _, _) = sample();
        let mut enc = Encoder::new();
        encode_rulebase(&mut enc, &rules);
        let bytes = enc.finish();
        let back = decode_rulebase(&mut Decoder::new(&bytes), &symbols).unwrap();
        assert_eq!(back, rules);
    }

    #[test]
    fn wal_records_roundtrip() {
        let (symbols, rules, base, _) = sample();
        let facts: Vec<GroundAtom> = base.iter_facts().collect();
        for op in [
            Op::Program {
                rules: rules.rules.clone(),
                facts: facts.clone(),
            },
            Op::Retract(facts[0].clone()),
            Op::Assume(facts.clone()),
            Op::Pop,
        ] {
            assert_eq!(
                decode_record(&encode_op(&op), &symbols).unwrap(),
                WalRecord::Op(op)
            );
        }
        let payload = encode_symbols_record(&["alpha", "beta"]);
        assert_eq!(
            decode_record(&payload, &symbols).unwrap(),
            WalRecord::Symbols(vec!["alpha".into(), "beta".into()])
        );
    }

    #[test]
    fn record_decode_rejects_corruption_without_panicking() {
        let (symbols, rules, base, _) = sample();
        let facts: Vec<GroundAtom> = base.iter_facts().collect();
        let payload = encode_op(&Op::Program {
            rules: rules.rules,
            facts: facts.clone(),
        });
        // Every truncation must be an error, never a panic.
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut], &symbols).is_err());
        }
        // Unknown tag.
        assert!(decode_record(&[99], &symbols).is_err());
        // Trailing garbage.
        let mut long = encode_op(&Op::Pop);
        long.push(0);
        assert!(decode_record(&long, &symbols).is_err());
        // Symbol id out of range.
        let empty = SymbolTable::new();
        let retract = encode_op(&Op::Retract(facts[0].clone()));
        assert!(decode_record(&retract, &empty).is_err());
    }

    /// The facts of `db` in [`Database::iter`] order.
    fn listed(db: &Database) -> Vec<GroundAtom> {
        db.iter_facts().collect()
    }

    #[test]
    fn checkpoint_roundtrips_base_and_frames_exactly() {
        let (symbols, rules, base, mut frames) = sample();
        // Frames that repeat a base fact, an earlier frame's fact, and
        // one of their own keep every copy, in order.
        let base_fact = listed(&base)[1].clone();
        frames.push(vec![base_fact.clone(), frames[0][0].clone()]);
        frames.push(vec![
            frames[2][0].clone(),
            base_fact.clone(),
            frames[2][0].clone(),
        ]);
        let bytes = encode_checkpoint(7, 42, &symbols, &rules, &base, &frames);
        let state = decode_checkpoint(&bytes).unwrap();
        assert_eq!(state.epoch, 7);
        assert_eq!(state.watermark, 42);
        assert_eq!(state.symbols.len(), symbols.len());
        assert_eq!(state.rulebase, rules);
        assert_eq!(listed(&state.base), listed(&base));
        assert_eq!(state.frames, frames);
    }

    #[test]
    fn checkpoint_rejects_bitflips_and_truncation() {
        let (symbols, rules, base, frames) = sample();
        let bytes = encode_checkpoint(1, 1, &symbols, &rules, &base, &frames);
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_checkpoint(b"HDLCKPT1").is_err());
        assert!(decode_checkpoint(b"").is_err());
        for i in (8..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_checkpoint(&bad).is_err(), "bitflip at {i} accepted");
        }
    }

    /// A version 1 image an earlier release wrote (see
    /// `tests/fixtures/checkpoint-v1/`).
    const V1_IMAGE: &[u8] = include_bytes!("../../../tests/fixtures/checkpoint-v1/ckpt-1.bin");

    /// The payload between an image's magic and its CRC.
    fn payload(image: &[u8]) -> &[u8] {
        &image[CKPT_MAGIC.len()..image.len() - 4]
    }

    /// `payload` framed with magic and a valid CRC, so only its structure
    /// is checked.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = CKPT_MAGIC.to_vec();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes
    }

    /// The symbols of `payload` and the offset of the state that follows
    /// its rulebase.
    fn state_offset(payload: &[u8]) -> (SymbolTable, usize) {
        let mut dec = Decoder::new(payload);
        dec.u32().unwrap();
        dec.u64().unwrap();
        dec.u64().unwrap();
        let symbols = decode_symbols(&mut dec).unwrap();
        decode_rulebase(&mut dec, &symbols).unwrap();
        (symbols, payload.len() - dec.remaining())
    }

    /// Every truncation of `payload`, an unknown version, trailing bytes
    /// and `u32::MAX` written at each of `indexes` are refused, each
    /// framed with a valid CRC.
    fn refuses_damage(payload: &[u8], indexes: &[usize]) {
        assert!(decode_checkpoint(&framed(payload)).is_ok());
        for cut in 0..payload.len() {
            assert!(
                decode_checkpoint(&framed(&payload[..cut])).is_err(),
                "cut at {cut}"
            );
        }
        for version in [0u32, 3] {
            let mut bad = payload.to_vec();
            bad[..4].copy_from_slice(&version.to_le_bytes());
            assert!(
                decode_checkpoint(&framed(&bad)).is_err(),
                "version {version}"
            );
        }
        let mut long = payload.to_vec();
        long.push(0);
        assert!(decode_checkpoint(&framed(&long)).is_err(), "trailing byte");
        for &at in indexes {
            let mut bad = payload.to_vec();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_checkpoint(&framed(&bad)).is_err(), "index at {at}");
        }
    }

    #[test]
    fn v2_images_refuse_structural_damage() {
        let (symbols, rules, base, frames) = sample();
        let image = encode_checkpoint(1, 1, &symbols, &rules, &base, &frames);
        let payload = payload(&image);
        // The first base fact's predicate, and the first frame fact's.
        let (_, at) = state_offset(payload);
        let base_len = 4 + base
            .iter()
            .map(|(_, args)| 8 + 4 * args.len())
            .sum::<usize>();
        refuses_damage(payload, &[at + 4, at + base_len + 8]);
    }

    #[test]
    fn v1_images_restore_and_refuse_structural_damage() {
        let state = decode_checkpoint(V1_IMAGE).unwrap();
        assert_eq!(state.base.len(), 8);
        let sizes: Vec<usize> = state.frames.iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, 1, 0, 1], "the frame facts a v1 image kept");

        let payload = payload(V1_IMAGE);
        let (symbols, at) = state_offset(payload);
        let mut dec = Decoder::new(&payload[at..]);
        decode_fact_list(&mut dec, &symbols).unwrap();
        let nodes = payload.len() - dec.remaining();
        // The root node: tag, index count, first fact index.
        let (tag, first_index) = (nodes + 4, nodes + 9);
        let mut bad = payload.to_vec();
        bad[tag] = 9;
        assert!(decode_checkpoint(&framed(&bad)).is_err(), "node tag 9");
        // The fact table's first predicate, the root's first fact index,
        // and the last chain ordinal.
        refuses_damage(payload, &[at + 4, first_index, payload.len() - 4]);
    }
}
