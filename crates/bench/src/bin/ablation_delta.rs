//! Regenerates ablation_delta of the paper. Run with `--release`; set
//! `MOBIEYES_QUICK=1` for a fast smoke run.

fn main() {
    let table = mobieyes_bench::figures::ablation_delta();
    table.print();
    table.save("results").expect("write results/");
    eprintln!("wrote results/{}.csv and .json", table.id);
}
