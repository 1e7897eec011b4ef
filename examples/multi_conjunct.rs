//! Multi-conjunct queries and the ranked join: combine an exact conjunct
//! with a RELAX one and watch combined answers arrive in non-decreasing
//! total distance through the streaming `Answers` handle.
//!
//! ```text
//! cargo run --example multi_conjunct
//! ```

use omega::core::{Database, ExecOptions};
use omega::datagen::{generate_l4all, L4AllConfig};

fn main() {
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);

    // Find learners (episodes) classified under Software Professionals whose
    // episode is followed by another episode — and relax the classification
    // conjunct so that siblings and superclasses also match, at a cost.
    let query = "(?E, ?N) <- RELAX (Software Professionals, type-.job-, ?E), (?E, next, ?N)";
    println!("query: {query}\n");
    let prepared = db.prepare(query).expect("query compiles");
    let answers = prepared
        .execute(&ExecOptions::new().with_limit(20))
        .expect("query evaluates");
    if answers.is_empty() {
        println!("no answers");
        return;
    }
    for a in &answers {
        println!("  {a}");
    }
    println!(
        "\n{} answers, total distances range {}..{}",
        answers.len(),
        answers.first().unwrap().distance,
        answers.last().unwrap().distance
    );

    // The same query with every conjunct exact, for comparison.
    let exact = db
        .execute(
            "(?E, ?N) <- (Software Professionals, type-.job-, ?E), (?E, next, ?N)",
            &ExecOptions::new().with_limit(20),
        )
        .expect("query evaluates");
    println!("exact version: {} answers", exact.len());
}
