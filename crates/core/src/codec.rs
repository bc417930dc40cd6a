//! The one binary codec: every byte format of the system — the protocol
//! messages, the journal records, the partition RPC frames and the
//! checkpoint image — is stated once, as the [`Wire`] implementation of
//! each type it carries, and encoding, decoding and sizing all follow
//! from that one statement.
//!
//! The message accounting behind the paper's messaging-cost and power
//! figures ([`mobieyes_net::WireSized::wire_size`]) is not a separate
//! description of the format: a message's size is the length of its
//! encoding, counted by encoding it into a sink that only counts
//! ([`encoded_len`]).
//!
//! Format: little-endian fixed-width scalars, 1-byte enum tags and option
//! flags, `u32` counts on sequences, maps and sets — except inside the
//! protocol messages, whose sequences carry the `u16` count of [`seq16`]
//! because that 2-byte prefix is part of the paper's cost model. No
//! varints, no compression: the point is a transparent, auditable cost
//! model, not maximal density.
//!
//! Decoding is an *untrusted* boundary (sockets, disk): every read through
//! [`Reader`] is bounds-checked and returns a [`DecodeError`] on truncated
//! input, and every sequence decoder ([`get_n`]) refuses a count whose
//! elements could not fit in the bytes left — each type declares its
//! minimum encoded length, [`Wire::MIN_LEN`] — before allocating — and a
//! recursive value is followed at most [`MAX_NESTING`] levels deep.
//! Malformed bytes never panic a decoder or exhaust its stack.
//!
//! Most layouts are declared with [`wire!`](crate::wire): the fields in
//! the order they are written, from which `put`, `get` and `MIN_LEN` derive.

use crate::config::Propagation;
use crate::filter::Filter;
use crate::messages::{
    CellDigests, ClusterMsg, Downlink, QueryGroupInfo, QueryMigration, QuerySpec, StubSeed, Uplink,
};
use crate::model::{ObjectId, PropValue, QueryId};
use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Vec2};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cursor over an encoded byte slice. Reading past the end returns a
/// [`DecodeError`] naming what was being read, never a slice panic, and so
/// does input nested deeper than [`MAX_NESTING`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Nesting levels entered and not yet left ([`Reader::nested`]).
    depth: usize,
}

/// The deepest nesting a decoder follows: a recursive value (a filter's
/// `And` / `Or` / `Not` operands) is decoded by recursion, one stack frame
/// per level, so the depth of untrusted input must be bounded before the
/// stack is. Far above any filter a query is built with.
pub const MAX_NESTING: usize = 64;

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Decodes with `get` one nesting level deeper; input nested past
    /// [`MAX_NESTING`] levels is an error, not a stack overflow.
    fn nested<T>(&mut self, get: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(DecodeError(format!(
                "input nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let value = get(self);
        self.depth -= 1;
        value
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes, or errors (`what` names the field) when
    /// fewer remain; a failed take consumes nothing.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(short_input(
                format_args!("truncated input: {what} needs {n} bytes"),
                self.remaining(),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// The error of a read the bytes left cannot satisfy — kept out of line,
/// so the inlined readers carry no formatting code.
#[cold]
#[inline(never)]
fn short_input(what: std::fmt::Arguments<'_>, remaining: usize) -> DecodeError {
    DecodeError(format!("{what}, {remaining} remain"))
}

/// Where encoded bytes go: a buffer, or a counter of them.
pub trait Put {
    fn put_slice(&mut self, bytes: &[u8]);
}

impl Put for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that counts the bytes an encoding would write instead of
/// writing them — how a message's wire size is taken from its encoder.
struct ByteCount(usize);

impl Put for ByteCount {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Decoding failure: malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

pub type Result<T> = std::result::Result<T, DecodeError>;

/// A type's byte format: how a value is written, and how one is read back.
pub trait Wire: Sized {
    /// The fewest bytes any value encodes to. Sequence decoders refuse a
    /// count of elements that could not fit in the bytes left.
    const MIN_LEN: usize;

    fn put(&self, out: &mut impl Put);

    fn get(buf: &mut Reader<'_>) -> Result<Self>;
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// The length of a value's encoding, counted without writing it.
pub fn encoded_len<T: Wire>(value: &T) -> usize {
    let mut count = ByteCount(0);
    value.put(&mut count);
    count.0
}

/// The one sequence decoder: `n` elements read by `each`, refused before
/// anything is allocated when `n` elements of at least `min` bytes could
/// not fit in what remains.
pub fn get_n<'a, T>(
    buf: &mut Reader<'a>,
    n: usize,
    min: usize,
    mut each: impl FnMut(&mut Reader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    if n.saturating_mul(min.max(1)) > buf.remaining() {
        let what = std::any::type_name::<T>();
        return Err(short_input(
            format_args!("oversized length prefix: {n} × {what} claimed"),
            buf.remaining(),
        ));
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(each(buf)?);
    }
    Ok(items)
}

/// The protocol messages' sequences: a `u16` count — the 2-byte prefix the
/// paper's cost model charges — then each element. Declared in a
/// [`wire!`](crate::wire) layout as `field: Vec<T> as seq16`.
pub mod seq16 {
    use super::{get_n, Put, Reader, Result, Wire};

    pub const MIN_LEN: usize = 2;

    pub fn put<T: Wire>(out: &mut impl Put, items: &[T]) {
        put_with(out, items, T::put);
    }

    pub fn get<T: Wire>(buf: &mut Reader<'_>) -> Result<Vec<T>> {
        get_with(buf, T::MIN_LEN, T::get)
    }

    /// [`put`] with the elements written by `each`.
    pub(crate) fn put_with<P: Put, T>(out: &mut P, items: &[T], each: impl Fn(&T, &mut P)) {
        debug_assert!(items.len() <= u16::MAX as usize);
        (items.len() as u16).put(out);
        for item in items {
            each(item, out);
        }
    }

    /// [`get`] with the elements read by `each`, each at least `min` bytes.
    pub(crate) fn get_with<'a, T>(
        buf: &mut Reader<'a>,
        min: usize,
        each: impl FnMut(&mut Reader<'a>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = u16::get(buf)?;
        get_n(buf, n.into(), min, each)
    }
}

/// Declares a type's byte layout once and derives its
/// [`Wire`](crate::codec::Wire) implementation — `put`, `get` and `MIN_LEN` —
/// from it:
///
/// ```ignore
/// wire!(struct ObjectId(u32));
/// wire!(struct CellId { x: u32, y: u32 });
/// wire!(enum QueryRegion {
///     0 => Circle { radius: f64 },
///     1 => Rect { half_w: f64, half_h: f64 },
/// });
/// ```
///
/// A struct is its fields in the order listed (a newtype, its one field);
/// an enum is a tag byte, then the variant's fields. Unit, brace and tuple
/// variants are accepted; a tuple variant names its fields to bind them
/// (`Eq(key: String, value: PropValue)`). A field written
/// `name: Type as adapter` is encoded by `adapter::put` / `adapter::get`
/// (minimum `adapter::MIN_LEN`) instead of `Type`'s own implementation — the
/// `u16`-counted [`seq16`](crate::codec::seq16), for instance. The encoder
/// is an exhaustive match, so a variant the layout misses does not compile.
#[macro_export]
macro_rules! wire {
    (struct $name:ident($t:ty)) => {
        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = <$t as $crate::codec::Wire>::MIN_LEN;
            fn put(&self, out: &mut impl $crate::codec::Put) {
                $crate::codec::Wire::put(&self.0, out)
            }
            fn get(buf: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                <$t as $crate::codec::Wire>::get(buf).map($name)
            }
        }
    };
    (struct $name:ident { $($f:ident: $t:ty $(as $via:ident)?),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 0 $(+ $crate::wire!(@min $t $(, $via)?))*;
            fn put(&self, out: &mut impl $crate::codec::Put) {
                let $name { $($f),* } = self;
                $($crate::wire!(@put out, $f, $t $(, $via)?);)*
            }
            fn get(buf: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                Ok($name { $($f: $crate::wire!(@get buf, $t $(, $via)?)),* })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $var:ident
            $({ $($f:ident: $t:ty $(as $via:ident)?),* $(,)? })?
            $(( $($pf:ident: $pt:ty $(as $pvia:ident)?),* $(,)? ))?
        ),* $(,)?
    }) => {
        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 1 + {
                let mut min = usize::MAX;
                $(
                    let fields = 0
                        $($(+ $crate::wire!(@min $t $(, $via)?))*)?
                        $($(+ $crate::wire!(@min $pt $(, $pvia)?))*)?;
                    if fields < min {
                        min = fields;
                    }
                )*
                min
            };
            fn put(&self, out: &mut impl $crate::codec::Put) {
                match self {
                    $($name::$var $({ $($f),* })? $(( $($pf),* ))? => {
                        <u8 as $crate::codec::Wire>::put(&$tag, out);
                        $($($crate::wire!(@put out, $f, $t $(, $via)?);)*)?
                        $($($crate::wire!(@put out, $pf, $pt $(, $pvia)?);)*)?
                    })*
                }
            }
            fn get(buf: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                Ok(match <u8 as $crate::codec::Wire>::get(buf)? {
                    $($tag => $name::$var
                        $({ $($f: $crate::wire!(@get buf, $t $(, $via)?)),* })?
                        $(( $($crate::wire!(@get buf, $pt $(, $pvia)?)),* ))?,)*
                    tag => {
                        return Err($crate::codec::DecodeError(format!(
                            concat!("unknown ", stringify!($name), " tag {}"),
                            tag
                        )))
                    }
                })
            }
        }
    };
    (@min $t:ty) => { <$t as $crate::codec::Wire>::MIN_LEN };
    (@min $t:ty, $via:ident) => { $via::MIN_LEN };
    (@put $out:ident, $f:ident, $t:ty) => { <$t as $crate::codec::Wire>::put($f, $out) };
    (@put $out:ident, $f:ident, $t:ty, $via:ident) => { $via::put($out, $f) };
    (@get $buf:ident, $t:ty) => { <$t as $crate::codec::Wire>::get($buf)? };
    (@get $buf:ident, $t:ty, $via:ident) => { $via::get($buf)? };
}

// --- scalars and containers --------------------------------------------------

macro_rules! le_scalars {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut impl Put) {
                out.put_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(buf: &mut Reader<'_>) -> Result<Self> {
                let mut le = [0; std::mem::size_of::<$t>()];
                le.copy_from_slice(buf.take(Self::MIN_LEN, stringify!($t))?);
                Ok(<$t>::from_le_bytes(le))
            }
        }
    )*};
}

le_scalars!(u8, u16, u32, u64, i64, f64);

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut impl Put) {
        u8::from(*self).put(out);
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        Ok(u8::get(buf)? != 0)
    }
}

/// A flag byte, then the value when it is present; any non-zero flag
/// reads as present.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut impl Put) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Arc<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn put(&self, out: &mut impl Put) {
        (**self).put(out);
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        T::get(buf).map(Arc::new)
    }
}

/// A box is how a type holds itself (a filter's operands), so its minimum
/// is a tag byte's — `T::MIN_LEN` would be defined in terms of itself —
/// and each box is one nesting level of the input.
impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut impl Put) {
        (**self).put(out);
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        buf.nested(|buf| T::get(buf).map(Box::new))
    }
}

macro_rules! tuples {
    ($(($($t:ident),*)),*) => {$(
        #[allow(non_snake_case)]
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)*;
            fn put(&self, out: &mut impl Put) {
                let ($($t,)*) = self;
                $($t.put(out);)*
            }
            fn get(buf: &mut Reader<'_>) -> Result<Self> {
                Ok(($($t::get(buf)?,)*))
            }
        }
    )*};
}

tuples!((A, B), (A, B, C), (A, B, C, D));

/// A `u32` count, then each element.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut impl Put) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        let n = u32::get(buf)?;
        get_n(buf, n as usize, T::MIN_LEN, T::get)
    }
}

/// Laid out like the `Vec` of its entries in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut impl Put) {
        (self.len() as u32).put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        Ok(Vec::<(K, V)>::get(buf)?.into_iter().collect())
    }
}

/// Laid out like the `Vec` of its members in order.
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut impl Put) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        Ok(Vec::<T>::get(buf)?.into_iter().collect())
    }
}

/// A `u16` byte length, then the UTF-8 bytes.
impl Wire for String {
    const MIN_LEN: usize = 2;
    fn put(&self, out: &mut impl Put) {
        debug_assert!(self.len() <= u16::MAX as usize);
        (self.len() as u16).put(out);
        out.put_slice(self.as_bytes());
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        let len = u16::get(buf)?;
        String::from_utf8(buf.take(len.into(), "string body")?.to_vec())
            .map_err(|_| DecodeError("invalid utf8".into()))
    }
}

// --- geometry, ids, filters --------------------------------------------------

crate::wire!(struct ObjectId(u32));
crate::wire!(struct QueryId(u32));
crate::wire!(
    struct CellId {
        x: u32,
        y: u32,
    }
);
crate::wire!(
    struct GridRect {
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    }
);
crate::wire!(
    struct Point {
        x: f64,
        y: f64,
    }
);
crate::wire!(
    struct Vec2 {
        x: f64,
        y: f64,
    }
);
crate::wire!(
    struct LinearMotion {
        pos: Point,
        vel: Vec2,
        tm: f64,
    }
);

crate::wire!(enum Propagation {
    0 => Eager,
    1 => Lazy,
});

crate::wire!(enum QueryRegion {
    0 => Circle { radius: f64 },
    1 => Rect { half_w: f64, half_h: f64 },
});

crate::wire!(enum PropValue {
    0 => Int(v: i64),
    1 => Float(v: f64),
    2 => Text(v: String),
    3 => Bool(v: bool),
});

crate::wire!(enum Filter {
    0 => True,
    1 => False,
    2 => Selectivity { selectivity: f64, salt: u64 },
    3 => Eq(key: String, value: PropValue),
    4 => Lt(key: String, threshold: f64),
    5 => Gt(key: String, threshold: f64),
    6 => And(a: Box<Filter>, b: Box<Filter>),
    7 => Or(a: Box<Filter>, b: Box<Filter>),
    8 => Not(inner: Box<Filter>),
});

// --- protocol messages -------------------------------------------------------

crate::wire!(
    struct QuerySpec {
        qid: QueryId,
        slot: u8,
        seq: u64,
        region: QueryRegion,
        filter: Arc<Filter>,
    }
);

/// Written out by hand only because its specs sit behind an `Arc`.
impl Wire for QueryGroupInfo {
    const MIN_LEN: usize = ObjectId::MIN_LEN
        + LinearMotion::MIN_LEN
        + f64::MIN_LEN
        + GridRect::MIN_LEN
        + seq16::MIN_LEN;
    fn put(&self, out: &mut impl Put) {
        self.focal.put(out);
        self.motion.put(out);
        self.max_vel.put(out);
        self.mon_region.put(out);
        seq16::put(out, &self.queries);
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        Ok(QueryGroupInfo {
            focal: Wire::get(buf)?,
            motion: Wire::get(buf)?,
            max_vel: Wire::get(buf)?,
            mon_region: Wire::get(buf)?,
            queries: Arc::new(seq16::get(buf)?),
        })
    }
}

/// A [`seq16`] of `(cell, digest)`, in the order listed; decoding derives
/// the lookup order flag from what it read.
impl Wire for CellDigests {
    const MIN_LEN: usize = seq16::MIN_LEN;
    fn put(&self, out: &mut impl Put) {
        seq16::put(out, self.entries());
    }
    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        seq16::get(buf).map(CellDigests::new)
    }
}

crate::wire!(enum Uplink {
    0 => VelocityReport { oid: ObjectId, motion: LinearMotion },
    1 => CellChange { oid: ObjectId, prev_cell: CellId, new_cell: CellId, motion: LinearMotion },
    2 => ResultUpdate { oid: ObjectId, changes: Vec<(QueryId, bool)> as seq16 },
    3 => GroupResultUpdate { oid: ObjectId, focal: ObjectId, mask: u64, targets: u64 },
    4 => PositionReply { oid: ObjectId, motion: LinearMotion, max_vel: f64 },
    5 => Resync { oid: ObjectId, cell: CellId, motion: LinearMotion, max_vel: f64, fresh: bool },
    6 => LqtSync { oid: ObjectId, entries: Vec<(QueryId, bool)> as seq16 },
});

crate::wire!(enum Downlink {
    0 => QueryState { info: QueryGroupInfo },
    1 => VelocityChange {
        focal: ObjectId,
        motion: LinearMotion,
        seq: u64,
        qids: Vec<QueryId> as seq16,
    },
    2 => NewQueries { infos: Vec<QueryGroupInfo> as seq16 },
    3 => RemoveQuery { qid: QueryId, epoch: u64 },
    4 => FocalNotify { is_focal: bool },
    5 => PositionRequest,
    6 => ResultDelta { qid: QueryId, object: ObjectId, entered: bool },
    7 => Heartbeat { epoch: u64, cell_digests: CellDigests },
    8 => CellSync { cell: CellId, epoch: u64, infos: Vec<QueryGroupInfo> as seq16 },
});

crate::wire!(struct QueryMigration {
    spec: QuerySpec,
    curr_cell: CellId,
    mon_region: GridRect,
    expires_at: Option<f64>,
    result: Vec<ObjectId> as seq16,
});

crate::wire!(
    struct StubSeed {
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        mon_region: GridRect,
        spec: QuerySpec,
    }
);

/// The RQI rows of a rebalance transfer: a [`seq16`] of
/// `(flat cell, seq16 of query ids)`.
mod rows16 {
    use super::{seq16, Put, QueryId, Reader, Result, Wire};

    pub const MIN_LEN: usize = seq16::MIN_LEN;

    pub fn put(out: &mut impl Put, rows: &[(u32, Vec<QueryId>)]) {
        seq16::put_with(out, rows, |(flat, qids), out| {
            flat.put(out);
            seq16::put(out, qids);
        });
    }

    pub fn get(buf: &mut Reader<'_>) -> Result<Vec<(u32, Vec<QueryId>)>> {
        seq16::get_with(buf, u32::MIN_LEN + seq16::MIN_LEN, |b| {
            Ok((u32::get(b)?, seq16::get(b)?))
        })
    }
}

crate::wire!(enum ClusterMsg {
    0 => MigrateFocal {
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        used_slots: u64,
        last_heard: f64,
        epoch: u64,
        queries: Vec<QueryMigration> as seq16,
    },
    1 => StubUpdate {
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        curr_cell: CellId,
        mon_region: GridRect,
        old_mon: Option<GridRect>,
        spec: QuerySpec,
    },
    2 => StubMotion {
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        qids: Vec<(QueryId, u64)> as seq16,
    },
    3 => StubRemove { qid: QueryId, mon_region: GridRect, epoch: u64 },
    4 => RebalanceCells {
        generation: u64,
        epoch: u64,
        cells: Vec<(u32, Vec<QueryId>)> as rows16,
        stubs: Vec<StubSeed> as seq16,
    },
    5 => RecoverCells { generation: u64, epoch: u64, cells: Vec<u32> as seq16 },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn motion() -> LinearMotion {
        LinearMotion::new(Point::new(1.5, -2.25), Vec2::new(0.125, 0.0625), 90.0)
    }

    fn uplinks() -> Vec<Uplink> {
        vec![
            Uplink::VelocityReport {
                oid: ObjectId(7),
                motion: motion(),
            },
            Uplink::ResultUpdate {
                oid: ObjectId(9),
                changes: vec![(QueryId(1), true), (QueryId(2), false)],
            },
            Uplink::Resync {
                oid: ObjectId(13),
                cell: CellId::new(4, 7),
                motion: motion(),
                max_vel: 0.05,
                fresh: true,
            },
            Uplink::LqtSync {
                oid: ObjectId(15),
                entries: vec![],
            },
        ]
    }

    #[test]
    fn unknown_tags_error() {
        let bytes = [250u8, 0, 0];
        assert!(Uplink::get(&mut Reader::new(&bytes)).is_err());
        assert!(Downlink::get(&mut Reader::new(&bytes)).is_err());
        assert!(ClusterMsg::get(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn oversized_length_prefix_errors_before_allocating() {
        // A ResultUpdate whose count claims 65535 entries with 3 bytes of
        // body: the count sanity check must reject it up front.
        let mut bytes = to_bytes(&(2u8, 9u32, u16::MAX));
        bytes.put_slice(&[0, 0, 0]);
        let e = Uplink::get(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            e.0.contains("oversized length prefix"),
            "expected an oversized-length error, got: {e}"
        );

        // Same for a string length prefix overrunning the buffer.
        let mut bytes = to_bytes(&(3u8, u16::MAX));
        bytes.put_slice(b"abc");
        assert!(Filter::get(&mut Reader::new(&bytes)).is_err());
    }

    /// A `Not` chain of `depth` levels around `True`, as bytes.
    fn not_chain(depth: usize) -> Vec<u8> {
        let mut bytes = vec![8u8; depth];
        bytes.push(0);
        bytes
    }

    /// The decoder follows filter nesting to [`MAX_NESTING`] levels and
    /// refuses the next one; a chain far deeper than any stack could
    /// recurse through is a decode error, not an abort.
    #[test]
    fn filter_nesting_is_bounded_at_decode() {
        let mut deepest = Filter::True;
        for _ in 0..MAX_NESTING {
            deepest = Filter::Not(Box::new(deepest));
        }
        let bytes = to_bytes(&deepest);
        assert_eq!(bytes, not_chain(MAX_NESTING));
        assert_eq!(Filter::get(&mut Reader::new(&bytes)), Ok(deepest));
        for depth in [MAX_NESTING + 1, 100_000] {
            let e = Filter::get(&mut Reader::new(&not_chain(depth))).unwrap_err();
            assert!(e.0.contains("nested deeper"), "depth {depth}: {e}");
        }
        // The bound is on depth, not size: a balanced filter of 1 024
        // leaves decodes whole.
        let balanced = (0..10).fold(Filter::False, |acc, _| {
            Filter::Or(Box::new(acc.clone()), Box::new(acc))
        });
        let bytes = to_bytes(&balanced);
        assert_eq!(Filter::get(&mut Reader::new(&bytes)), Ok(balanced));
    }

    #[test]
    fn reader_take_is_checked() {
        let mut buf = Reader::new(&[1u8, 2, 3]);
        assert_eq!(buf.take(2, "x").unwrap(), &[1, 2]);
        assert!(buf.take(2, "x").is_err(), "overrun must error, not panic");
        // The failed take consumes nothing.
        assert_eq!(buf.remaining(), 1);
        assert_eq!(u8::get(&mut buf).unwrap(), 3);
        assert!(u8::get(&mut buf).is_err());
    }

    #[test]
    fn back_to_back_messages_decode_in_sequence() {
        let mut out = Vec::new();
        let msgs = uplinks();
        for m in &msgs {
            m.put(&mut out);
        }
        let mut buf = Reader::new(&out);
        for m in &msgs {
            assert_eq!(&Uplink::get(&mut buf).unwrap(), m);
        }
        assert_eq!(buf.remaining(), 0);
    }

    /// Filter sizes: a tag byte, `u16`-prefixed keys, tagged values.
    #[test]
    fn filter_sizes_compose() {
        assert_eq!(encoded_len(&Filter::True), 1);
        assert_eq!(encoded_len(&Filter::with_selectivity(0.5, 1)), 17);
        let a = Filter::Eq("k".into(), PropValue::Int(1));
        assert_eq!(encoded_len(&a), 1 + 2 + 1 + 1 + 8);
        let b = Filter::Lt("key2".into(), 3.0);
        assert_eq!(encoded_len(&b), 1 + 2 + 4 + 8);
        let and = Filter::And(Box::new(a.clone()), Box::new(b.clone()));
        assert_eq!(encoded_len(&and), 1 + encoded_len(&a) + encoded_len(&b));
        let text = Filter::Eq("tag".into(), PropValue::Text("ab".into()));
        assert_eq!(encoded_len(&text), 1 + 2 + 3 + 1 + 2 + 2);
    }

    #[test]
    fn region_and_geometry_sizes() {
        assert_eq!(encoded_len(&QueryRegion::circle(1.0)), 9);
        assert_eq!(encoded_len(&QueryRegion::rect(1.0, 1.0)), 17);
        assert_eq!(encoded_len(&motion()), 40);
        assert_eq!(encoded_len(&GridRect::EMPTY), 16);
        assert_eq!(
            (
                LinearMotion::MIN_LEN,
                GridRect::MIN_LEN,
                QueryRegion::MIN_LEN
            ),
            (40, 16, 9)
        );
    }

    // The minimum a sequence decoder checks a count against is never below
    // what it was when each count was checked by hand.
    const _: () = {
        assert!(QuerySpec::MIN_LEN >= 14);
        assert!(QueryGroupInfo::MIN_LEN >= 70);
        assert!(QueryMigration::MIN_LEN >= 48);
        assert!(StubSeed::MIN_LEN >= 85);
        assert!(LinearMotion::MIN_LEN >= 40);
        assert!(<(QueryId, bool)>::MIN_LEN >= 5);
        assert!(<(CellId, u64)>::MIN_LEN >= 16);
        assert!(<(QueryId, u64)>::MIN_LEN >= 12);
        assert!(<(u32, ClusterMsg)>::MIN_LEN >= 5);
        assert!(<(ObjectId, Vec<QueryId>)>::MIN_LEN >= 8);
    };
}
