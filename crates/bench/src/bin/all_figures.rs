//! Runs every figure and ablation in sequence, writing all artifacts to
//! `results/`. This is the one-shot reproduction entry point:
//! `cargo run -p mobieyes-bench --release --bin all_figures`.

use mobieyes_bench::figures;

fn main() {
    let start = std::time::Instant::now();
    let tables = vec![
        figures::table1(),
        figures::fig1(),
        figures::fig2(),
        figures::fig3(),
        figures::fig4(),
    ];
    for t in &tables {
        t.print();
        println!();
        t.save("results").expect("write results/");
    }
    let (t5, t6) = figures::fig5_6();
    for t in [&t5, &t6] {
        t.print();
        println!();
        t.save("results").expect("write results/");
    }
    let rest = vec![
        figures::fig7(),
        figures::fig8(),
        figures::fig9(),
        figures::fig10(),
        figures::fig11(),
        figures::fig12(),
        figures::fig13(),
        figures::ablation_grouping(),
        figures::ablation_delta(),
    ];
    for t in &rest {
        t.print();
        println!();
        t.save("results").expect("write results/");
    }
    eprintln!("all figures done in {:.1} s", start.elapsed().as_secs_f64());
}
