//! Query answers.
//!
//! An [`Answer`] is a row, not a map. Its [`Bindings`] hold one [`Arc`] to
//! the batch the row came from — the head's schema and one label source —
//! plus the row's cells, inline up to four columns. Labels are resolved only
//! when [`Bindings::iter`] or [`Bindings::get`] reads them.
//!
//! - **Schema.** The head's variable names in sorted order, each once, and
//!   for each column of a row the name it binds. A name that several
//!   columns bind takes the last of them that is bound, as collecting the
//!   row's `(name, label)` pairs into a map keeps the last value.
//! - **Label sources.** In process a cell is a node id of the execution's
//!   pinned epoch, so an `Answer` keeps its epoch alive — graph and labels —
//!   until it is dropped, however many epochs `apply` and `compact` publish
//!   meanwhile. On the client a cell indexes its decoded frame's label
//!   table ([`AnswerBatch::table`]), checked when the row is built.
//! - **Comparisons.** `Eq`, `Ord`, `Hash` and `Debug` see the sorted
//!   `(name, label)` sequence of the bound cells, exactly as they see a
//!   `BTreeMap<String, String>` of the same pairs: an answer read off the
//!   wire equals the one built in process.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use omega_graph::NodeId;

use crate::service::GraphData;

/// An answer to a single conjunct: instantiations of the conjunct's subject
/// (`x`) and object (`y`) terms, together with the distance at which the
/// answer was found (0 for exact matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConjunctAnswer {
    /// Binding of the conjunct's subject term.
    pub x: NodeId,
    /// Binding of the conjunct's object term.
    pub y: NodeId,
    /// Edit/relaxation distance of the answer.
    pub distance: u32,
}

/// The cell of a column a row does not bind.
pub const UNBOUND: u32 = u32::MAX;

/// An answer to a (possibly multi-conjunct) query: bindings of the head
/// variables to node labels, plus the total distance summed over conjuncts.
///
/// Answers are produced in non-decreasing order of `distance`. An answer
/// built in process keeps its execution's graph epoch alive (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Head-variable bindings (variable name without the leading `?` →
    /// node label).
    pub bindings: Bindings,
    /// Total distance of the answer.
    pub distance: u32,
}

impl Answer {
    /// The binding of `variable` (with or without its leading `?`), if
    /// present.
    pub fn get(&self, variable: &str) -> Option<&str> {
        self.bindings.get(variable.trim_start_matches('?'))
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .bindings
            .iter()
            .map(|(var, value)| format!("?{var}={value}"))
            .collect();
        write!(f, "[{}] @ distance {}", parts.join(", "), self.distance)
    }
}

/// Where a batch's cells take their labels from.
enum Labels {
    /// In process: a cell is a node id of this epoch.
    Epoch(Arc<GraphData>),
    /// Decoded or hand-built: a cell indexes this table, label `i` being
    /// `text[bounds[i]..bounds[i + 1]]`.
    Table { text: String, bounds: Box<[usize]> },
}

/// What the answers of one batch share: their schema and label source.
struct Batch {
    /// The distinct variable names, sorted.
    names: Box<[Box<str>]>,
    /// Per column of the rows the batch is built from, the index of the
    /// name it binds.
    slots: Box<[usize]>,
    labels: Labels,
}

impl Batch {
    fn new<S: AsRef<str>>(columns: &[S], labels: Labels) -> Batch {
        let mut names: Vec<&str> = columns.iter().map(AsRef::as_ref).collect();
        names.sort_unstable();
        names.dedup();
        let slots = columns
            .iter()
            .map(|column| names.partition_point(|name| *name < column.as_ref()))
            .collect();
        Batch {
            names: names.into_iter().map(Box::from).collect(),
            slots,
            labels,
        }
    }

    fn label(&self, cell: u32) -> &str {
        match &self.labels {
            Labels::Epoch(data) => data.graph.node_label(NodeId(cell)),
            Labels::Table { text, bounds } => {
                let i = cell as usize;
                &text[bounds[i]..bounds[i + 1]]
            }
        }
    }
}

/// A batch of answers under one head and one label source: each
/// [`AnswerBatch::answer`] shares it through one [`Arc`].
pub struct AnswerBatch(Arc<Batch>);

impl AnswerBatch {
    /// A batch whose rows hold, per column of `columns`, an index into
    /// `labels` or [`UNBOUND`] — how a decoded `Answers` frame becomes
    /// answers.
    pub fn table(columns: &[&str], labels: &[&str]) -> AnswerBatch {
        let mut text = String::with_capacity(labels.iter().map(|l| l.len()).sum());
        let mut bounds = Vec::with_capacity(labels.len() + 1);
        bounds.push(0);
        for label in labels {
            text.push_str(label);
            bounds.push(text.len());
        }
        let labels = Labels::Table {
            text,
            bounds: bounds.into(),
        };
        AnswerBatch(Arc::new(Batch::new(columns, labels)))
    }

    /// A batch whose rows hold node ids of `data`, under the head `columns`.
    pub(crate) fn epoch(columns: &[String], data: Arc<GraphData>) -> AnswerBatch {
        AnswerBatch(Arc::new(Batch::new(columns, Labels::Epoch(data))))
    }

    /// The answer for `row` — one cell per column — at `distance`. `None`
    /// when the row's width is not the batch's, or, for a table, a cell is
    /// neither a label index nor [`UNBOUND`].
    pub fn answer(&self, row: &[u32], distance: u32) -> Option<Answer> {
        let batch = &*self.0;
        let in_range = match &batch.labels {
            Labels::Epoch(_) => true,
            Labels::Table { bounds, .. } => row
                .iter()
                .all(|&cell| cell == UNBOUND || (cell as usize) < bounds.len() - 1),
        };
        (row.len() == batch.slots.len() && in_range).then(|| self.row(row, |cell| cell, distance))
    }

    /// [`AnswerBatch::answer`] for a row known to be valid — the engine's
    /// node ids, or a table's own indexes — each cell read through `cell`.
    pub(crate) fn row<T: Copy>(&self, row: &[T], cell: impl Fn(T) -> u32, distance: u32) -> Answer {
        let batch = &*self.0;
        let mut cells = if batch.names.len() <= INLINE {
            Cells::Inline([UNBOUND; INLINE])
        } else {
            Cells::Boxed(vec![UNBOUND; batch.names.len()].into())
        };
        let out = match &mut cells {
            Cells::Inline(cells) => &mut cells[..],
            Cells::Boxed(cells) => &mut cells[..],
        };
        for (&slot, &value) in batch.slots.iter().zip(row) {
            let value = cell(value);
            if value != UNBOUND {
                out[slot] = value;
            }
        }
        Answer {
            bindings: Bindings {
                batch: Arc::clone(&self.0),
                cells,
            },
            distance,
        }
    }
}

/// Columns whose cells a [`Bindings`] holds inline.
const INLINE: usize = 4;

/// One cell per name of the batch.
#[derive(Clone)]
enum Cells {
    Inline([u32; INLINE]),
    Boxed(Box<[u32]>),
}

/// An answer's bindings: a view of one row of its batch, read as the map
/// from variable name to node label it stands for (see the
/// [module docs](self)).
#[derive(Clone)]
pub struct Bindings {
    batch: Arc<Batch>,
    cells: Cells,
}

impl Bindings {
    /// One cell per name of the batch.
    fn cells(&self) -> &[u32] {
        match &self.cells {
            Cells::Inline(cells) => &cells[..self.batch.names.len()],
            Cells::Boxed(cells) => cells,
        }
    }

    /// The bound `(variable, label)` pairs, sorted by variable.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.columns()
            .zip(self.labels())
            .filter_map(|(name, label)| Some((name, label?)))
    }

    /// The label bound to the variable named exactly `variable`, if any.
    pub fn get(&self, variable: &str) -> Option<&str> {
        let i = self
            .batch
            .names
            .binary_search_by(|name| (**name).cmp(variable))
            .ok()?;
        let cell = self.cells()[i];
        (cell != UNBOUND).then(|| self.batch.label(cell))
    }

    /// How many variables are bound.
    pub fn len(&self) -> usize {
        self.cells().iter().filter(|&&cell| cell != UNBOUND).count()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every variable of the batch's schema, sorted, bound here or not.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.batch.names.iter().map(|name| &**name)
    }

    /// The label of each of [`Bindings::columns`], `None` where unbound.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = Option<&str>> + '_ {
        self.cells()
            .iter()
            .map(|&cell| (cell != UNBOUND).then(|| self.batch.label(cell)))
    }

    /// Whether `self` and `other` are rows of the same batch, and so share
    /// their [`Bindings::columns`].
    pub fn shares_batch(&self, other: &Bindings) -> bool {
        Arc::ptr_eq(&self.batch, &other.batch)
    }
}

/// Bindings of hand-built pairs; of two equal names the last wins.
impl FromIterator<(String, String)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(pairs: I) -> Bindings {
        let pairs: Vec<(String, String)> = pairs.into_iter().collect();
        let columns: Vec<&str> = pairs.iter().map(|(name, _)| name.as_str()).collect();
        let labels: Vec<&str> = pairs.iter().map(|(_, label)| label.as_str()).collect();
        let row: Vec<u32> = (0..pairs.len() as u32).collect();
        AnswerBatch::table(&columns, &labels)
            .row(&row, |cell| cell, 0)
            .bindings
    }
}

/// Bindings of hand-built pairs, as `BTreeMap::from`: of two equal names
/// the last wins.
impl<const N: usize> From<[(String, String); N]> for Bindings {
    fn from(pairs: [(String, String); N]) -> Bindings {
        pairs.into_iter().collect()
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Bindings {}

impl PartialOrd for Bindings {
    fn partial_cmp(&self, other: &Bindings) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bindings {
    fn cmp(&self, other: &Bindings) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl Hash for Bindings {
    /// As `BTreeMap<String, String>` hashes: the length, then each pair.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        self.iter().for_each(|pair| pair.hash(state));
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_accessors() {
        let a = Answer {
            bindings: [("X".to_owned(), "Alice".to_owned())].into(),
            distance: 2,
        };
        assert_eq!(a.get("X"), Some("Alice"));
        assert_eq!(a.get("?X"), Some("Alice"));
        assert_eq!(a.get("Y"), None);
        assert_eq!(a.to_string(), "[?X=Alice] @ distance 2");
    }

    #[test]
    fn a_table_row_binds_each_name_its_last_bound_column() {
        let batch = AnswerBatch::table(&["Y", "X", "Y", "Z"], &["a", "b", "c"]);
        let answer = batch.answer(&[0, 1, 2, UNBOUND], 3).expect("in range");
        assert_eq!(
            answer.bindings.iter().collect::<Vec<_>>(),
            [("X", "b"), ("Y", "c")]
        );
        assert_eq!(
            answer.bindings.columns().collect::<Vec<_>>(),
            ["X", "Y", "Z"]
        );
        assert_eq!(answer.get("Z"), None);
        assert_eq!(answer.bindings.len(), 2);
        assert_eq!(format!("{:?}", answer.bindings), r#"{"X": "b", "Y": "c"}"#);
        let answer = batch
            .answer(&[0, 1, UNBOUND, UNBOUND], 3)
            .expect("in range");
        assert_eq!(answer.get("Y"), Some("a"), "the last bound column of Y");
        assert!(
            batch.answer(&[0, 1, 3, UNBOUND], 0).is_none(),
            "index 3 of 3"
        );
        assert!(batch.answer(&[0, 1, 2], 0).is_none(), "short row");
    }

    #[test]
    fn wide_rows_box_their_cells() {
        let names = ["A", "B", "C", "D", "E", "F"];
        let batch = AnswerBatch::table(&names, &names);
        let answer = batch.answer(&[5, 4, 3, 2, 1, 0], 0).expect("in range");
        let expected = [
            ("A", "F"),
            ("B", "E"),
            ("C", "D"),
            ("D", "C"),
            ("E", "B"),
            ("F", "A"),
        ];
        assert_eq!(answer.bindings.iter().collect::<Vec<_>>(), expected);
        assert_eq!(answer.clone(), answer);
    }
}
