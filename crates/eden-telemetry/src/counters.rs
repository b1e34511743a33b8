//! Counter groups: one table per group, every exported form derived.
//!
//! A *group* is a plain `Copy` struct of `u64` fields that some layer
//! increments in place, declared with [`counters!`] as a table whose rows
//! are *field, exported name, kind, help*. The struct, its [`Row`] list,
//! `values`/`from_values` and the field-wise `merge` expand from that
//! table, and each renderer (JSON here, Prometheus in `prom.rs`, the
//! control protocol's `Stats` section in `eden-ctrl`) is one loop over
//! rows beside values — so a signal is added by adding a row and the line
//! that fills it, and no renderer can drop it. Nothing is registered or
//! looked up at run time.

use crate::json::{Json, ToJson};

/// How a row's value behaves over time (its Prometheus `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows; exported with a `_total` suffix.
    Counter,
    /// A level read at snapshot time.
    Gauge,
}

impl Kind {
    /// The Prometheus type name.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One exported signal: a row of a group's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The struct field the data path increments.
    pub field: &'static str,
    /// The JSON key; differs from `field` where the two spellings
    /// predate the table.
    pub name: &'static str,
    /// The Prometheus name: `eden_<group>_<name>`, `_total` on counters.
    pub prom: &'static str,
    pub kind: Kind,
    /// One line saying what is counted.
    pub help: &'static str,
}

/// A label's value: an index or a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelValue<'a> {
    Num(u64),
    Text(&'a str),
}

/// One of the labels that say whose block a labelled block is: its JSON
/// key, its Prometheus label name (`""` keeps it out of the exposition)
/// and its value.
pub type Label<'a> = (&'static str, &'static str, LabelValue<'a>);

/// A block of one group's counters as a snapshot carries it: the group
/// struct itself where the snapshot holds the group once, labels plus the
/// struct where it holds a block per table, rule, function or flow. What
/// the renderers are generic over.
pub trait Block {
    /// The group's table.
    const ROWS: &'static [Row];

    /// Whose block this is; nothing for a group held once.
    fn labels(&self) -> impl AsRef<[Label<'_>]> {
        []
    }

    /// The values, in row order.
    fn values(&self) -> impl AsRef<[u64]>;
}

/// The JSON form of any block: its labels, then every row under its
/// exported name.
impl<B: Block> ToJson for B {
    fn to_json(&self) -> Json {
        let (labels, values) = (self.labels(), self.values());
        let labels = labels.as_ref().iter().map(|&(key, _, value)| match value {
            LabelValue::Num(n) => (key.to_string(), Json::UInt(n)),
            LabelValue::Text(s) => (key.to_string(), Json::Str(s.to_string())),
        });
        let rows = Self::ROWS.iter().zip(values.as_ref());
        let rows = rows.map(|(row, &v)| (row.name.to_string(), Json::UInt(v)));
        Json::Obj(labels.chain(rows).collect())
    }
}

/// Declare a counter group. Each row reads
/// `field [as exported_name]: Kind, "help";` and expands to a `pub u64`
/// field documented by its help line. Row order is field order, JSON key
/// order, exposition order and — for the one group that crosses the wire
/// — byte order.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, group $group:literal {
            $( $field:ident $(as $export:ident)? : $kind:ident, $help:literal; )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( #[doc = $help] pub $field: u64, )+
        }

        impl $name {
            /// The group's table, one row per field in field order.
            pub const ROWS: &'static [$crate::Row] = &[ $( $crate::Row {
                field: stringify!($field),
                name: counters!(@name $field $($export)?),
                prom: concat!(
                    "eden_", $group, "_",
                    counters!(@name $field $($export)?),
                    counters!(@suffix $kind)
                ),
                kind: $crate::Kind::$kind,
                help: $help,
            }, )+ ];

            /// Every field's value, in row order.
            pub const fn values(&self) -> [u64; $name::ROWS.len()] {
                [ $( self.$field, )+ ]
            }

            /// The block whose fields are `values`, in row order.
            pub const fn from_values(values: [u64; $name::ROWS.len()]) -> $name {
                let [ $( $field, )+ ] = values;
                $name { $( $field, )+ }
            }

            /// Add `other` field by field (lanes into an enclave, hosts
            /// into a fleet).
            pub fn merge(&mut self, other: &$name) {
                $( self.$field += other.$field; )+
            }
        }

        impl $crate::Block for $name {
            const ROWS: &'static [$crate::Row] = $name::ROWS;

            fn values(&self) -> impl AsRef<[u64]> {
                $name::values(self)
            }
        }
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $export:ident) => { stringify!($export) };
    (@suffix Counter) => { "_total" };
    (@suffix Gauge) => { "" };
}
pub(crate) use counters;
