//! Regenerates Figures 5 and 6 of the paper (one shared sweep). Run with
//! `--release`; set `MOBIEYES_QUICK=1` for a fast smoke run.

fn main() {
    let (t5, t6) = mobieyes_bench::figures::fig5_6();
    t5.print();
    println!();
    t6.print();
    t5.save("results").expect("write results/");
    t6.save("results").expect("write results/");
    eprintln!("wrote results/fig5.* and results/fig6.*");
}
