//! One declaration per wire record: [`wire_record!`](crate::wire_record)
//! and [`wire_enum!`](crate::wire_enum) derive both codec directions from
//! a single field list, so a record cannot be encoded one way and decoded
//! another.  Each field goes through its own codec impl, in the order
//! written — the list *is* the wire format.  Codecs stay hand-written
//! where the decoder validates what it reads or the format is not a field
//! list ([`Blob`](crate::Blob), the primitives in [`codec`](crate::codec)).

/// Derives `WireEncode` + `WireDecode` for a struct from its fields in wire
/// order: `wire_record!(Call { seq, service });` (a tuple struct lists its
/// positions: `wire_record!(Id { 0 });`).
#[macro_export]
macro_rules! wire_record {
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::WireEncode for $ty {
            fn encode<W: $crate::WireWrite + ?Sized>(&self, w: &mut W) {
                $($crate::WireEncode::encode(&self.$field, w);)*
            }
        }
        impl $crate::WireDecode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty { $($field: $crate::WireDecode::decode(r)?),* })
            }
        }
    };
}

/// Derives both codec directions for an enum — a one-byte tag, then the
/// variant's fields in the order written — plus `tag()`, `kind()` and the
/// `KINDS` table, from one row per variant:
///
/// ```
/// use rpcv_wire::{from_bytes, to_bytes, wire_enum, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle { centre: (i64, i64), radius: u32 },
///     Label(String),
/// }
///
/// wire_enum!(Shape {
///     0 => Dot {},                    // unit variant
///     1 => Circle { centre, radius }, // struct variant
///     2 => Label { 0: text },         // tuple variant: position, then a binding name
/// });
///
/// let label = Shape::Label("a".into());
/// assert_eq!(to_bytes(&label), [2, 1, b'a']);
/// assert_eq!(from_bytes::<Shape>(&to_bytes(&label)).unwrap(), label);
/// assert_eq!((label.tag(), label.kind()), (2, "Label"));
/// assert_eq!(Shape::KINDS[1], (1, "Circle"));
/// assert!(from_bytes::<Shape>(&[2, 2, b'a']).is_err(), "a truncated field fails typed");
/// assert_eq!(from_bytes::<Shape>(&[9]), Err(WireError::InvalidTag { ty: "Shape", tag: 9 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident { $($field:tt $(: $bind:ident)?),* $(,)? }
    ),+ $(,)? }) => {
        impl $ty {
            /// `(wire tag, variant name)` of every variant.
            pub const KINDS: &'static [(u8, &'static str)] =
                &[$(($tag, stringify!($variant))),+];

            /// The one-byte wire tag of this variant.
            pub fn tag(&self) -> u8 {
                match self { $(Self::$variant { .. } => $tag),+ }
            }

            /// The variant's name (for traces and per-kind counters).
            pub fn kind(&self) -> &'static str {
                match self { $(Self::$variant { .. } => stringify!($variant)),+ }
            }
        }
        impl $crate::WireEncode for $ty {
            fn encode<W: $crate::WireWrite + ?Sized>(&self, w: &mut W) {
                w.put_u8(self.tag());
                match self {
                    $(Self::$variant { $($field $(: $bind)?),* } => {
                        $($crate::wire_enum!(@put w $field $($bind)?);)*
                    })+
                }
            }
        }
        impl $crate::WireDecode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(match r.get_u8()? {
                    $($tag => Self::$variant { $($field: $crate::WireDecode::decode(r)?),* },)+
                    tag => {
                        return Err($crate::WireError::InvalidTag {
                            ty: stringify!($ty),
                            tag: tag as u64,
                        })
                    }
                })
            }
        }
    };
    (@put $w:ident $field:ident) => { $crate::WireEncode::encode($field, $w) };
    (@put $w:ident $field:tt $bind:ident) => { $crate::WireEncode::encode($bind, $w) };
}
