//! Regenerates fig2 of the paper. Run with `--release`; set
//! `MOBIEYES_QUICK=1` for a fast smoke run.

fn main() {
    let table = mobieyes_bench::figures::fig2();
    table.print();
    table.save("results").expect("write results/");
    eprintln!("wrote results/{}.csv and .json", table.id);
}
