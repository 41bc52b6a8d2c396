// Table 2: quantum vs classical learning at matched parameter budgets.
//
// Paper (SSIM / MSE on Q-D-FW and Q-D-CNN):
//   CNN-PX (634 par)  0.870 / 4.34e-4   and 0.87 / 4.38e-4
//   CNN-LY (616 par)  0.871 / 4.36e-4   and 0.87 / 4.36e-4
//   Q-M-PX (576 par)  0.859 / 4.61e-4   and 0.86 / 4.62e-4
//   Q-M-LY (576 par)  0.893 / 3.48e-4   and 0.91 / 3.28e-4
// Q-M-LY beats both classical baselines: +19.84% / +25.17% MSE vs CNN-PX.
#include "bench_common.h"

int main() {
  using namespace qugeo;
  bench::print_header(
      "Table 2: quantum vs classical learning at equal parameter budget",
      "Q-M-LY outperforms CNN-PX/CNN-LY: MSE +19.84% (Q-D-FW) and +25.17% "
      "(Q-D-CNN)");
  bench::Setup setup = bench::standard_setup();
  bench::print_run_scale(setup);

  struct ModelRow {
    std::string name;
    std::size_t params = 0;
    Real ssim[2] = {0, 0};
    Real mse[2] = {0, 0};
  };
  std::vector<ModelRow> rows;
  const char* datasets[] = {"Q-D-FW", "Q-D-CNN"};

  // The classical nets need a smaller Adam step than the VQC's lr 0.1 (at
  // 0.1 the sigmoid heads saturate and training collapses to a constant);
  // epochs and schedule are kept identical.
  core::TrainConfig cnn_train = setup.train;
  cnn_train.initial_lr = 0.01;

  for (const auto decoder :
       {core::DecoderKind::kPixel, core::DecoderKind::kLayer}) {
    ModelRow row;
    for (int d = 0; d < 2; ++d) {
      const auto r =
          run_classical_experiment(setup.data, datasets[d], decoder, cnn_train);
      row.name = r.model_name;
      row.params = r.param_count;
      row.ssim[d] = r.train.final_ssim;
      row.mse[d] = r.train.final_mse;
    }
    rows.push_back(row);
  }
  for (const auto decoder :
       {core::DecoderKind::kPixel, core::DecoderKind::kLayer}) {
    ModelRow row;
    for (int d = 0; d < 2; ++d) {
      core::ExperimentSpec spec;
      spec.dataset = datasets[d];
      spec.decoder = decoder;
      const auto r = run_vqc_experiment(setup.data, spec, setup.train);
      row.name = r.model_name;
      row.params = r.param_count;
      row.ssim[d] = r.train.final_ssim;
      row.mse[d] = r.train.final_mse;
    }
    rows.push_back(row);
  }
  {
    // Unconstrained InversionNet-lite reference (extension; not in the
    // paper's table — bounds what classical learning gets from this data).
    ModelRow row;
    core::TrainConfig inet_train = setup.train;
    inet_train.initial_lr = 0.003;  // ~25k parameters need a smaller step
    for (int d = 0; d < 2; ++d) {
      const auto r = run_classical_experiment(setup.data, datasets[d],
                                              core::DecoderKind::kPixel,
                                              inet_train, 42, true);
      row.name = r.model_name;
      row.params = r.param_count;
      row.ssim[d] = r.train.final_ssim;
      row.mse[d] = r.train.final_mse;
    }
    rows.push_back(row);
  }

  const ModelRow& bl = rows[0];  // CNN-PX is the paper's baseline
  std::printf("\n%-8s | %-5s | %-8s %-10s %-8s | %-8s %-10s %-8s\n", "Model",
              "Par.", "FW SSIM", "FW MSE", "dMSE%%", "CNN SSIM", "CNN MSE",
              "dMSE%%");
  std::printf("---------+-------+------------------------------+------------------------------\n");
  for (const ModelRow& r : rows) {
    std::printf("%-8s | %5zu |", r.name.c_str(), r.params);
    for (int d = 0; d < 2; ++d) {
      const Real dmse = 100.0 * (bl.mse[d] - r.mse[d]) / bl.mse[d];
      std::printf(" %8.4f %10.3e %+7.2f%% %s", r.ssim[d], r.mse[d], dmse,
                  d == 0 ? "|" : "");
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: Q-M-LY decisively beats Q-M-PX; against the "
              "parameter-matched CNNs the ordering is budget-sensitive — at "
              "short budgets the CNNs lead, at 200+ epochs Q-M-LY overtakes "
              "as the CNNs overfit.\n");
  return 0;
}
