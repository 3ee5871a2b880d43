//! Probes: each layer's public functions replayed, one at a time, on
//! inputs captured from the workload under test — its real download and
//! upload, its client's batch, its model's layer shapes. A probe times a
//! unit of work; the staged round says how many units a round holds.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gradsec_core::trainer::estimate_cycle;
use gradsec_core::SecureTrainer;
use gradsec_data::{batch_of, split, Batcher, Dataset};
use gradsec_fl::client::{DeviceProfile, FlClient};
use gradsec_fl::codec::{decode_weights, dense_wire_bytes, encode_weights};
use gradsec_fl::message::{
    encode, EncodedModelDownload, EncodedUpdateUpload, Envelope, MessageKind, ModelDownload,
    UpdateUpload, ENVELOPE_HEADER_LEN,
};
use gradsec_fl::trainer::{LocalTrainer, PlainSgdTrainer};
use gradsec_fl::transport::mux::FrameReassembler;
use gradsec_nn::layer::LayerKind;
use gradsec_nn::optim::Sgd;
use gradsec_tee::attestation::{sign_quote, verify_quote, Challenge, Measurement};
use gradsec_tee::cost::CostModel;
use gradsec_tee::crypto::sha256::sha256;
use gradsec_tee::ta::Uuid;
use gradsec_tensor::ops::conv::{conv2d_backward_with, conv2d_forward_with, Conv2dGeometry};
use gradsec_tensor::ops::matmul::matmul_nt_with;
use gradsec_tensor::{init, Tensor};

use crate::metrics::Values;
use crate::stats::median;
use crate::workload::Config;
use crate::Res;

/// A timed block is long enough that reading the clock is noise.
const MIN_BLOCK: Duration = Duration::from_micros(50);

const MIB: f64 = 1024.0 * 1024.0;
const READ_CHUNK: usize = 64 * 1024;

/// How long each probe repeats: until `budget` has passed and for at
/// least `min_blocks` timed blocks. Smoke mode only checks the path.
#[derive(Clone, Copy)]
struct Clock {
    budget: Duration,
    min_blocks: usize,
    loopback_bytes: usize,
}

impl Clock {
    fn of(cfg: &Config) -> Clock {
        if cfg.smoke {
            Clock {
                budget: Duration::from_millis(1),
                min_blocks: 2,
                loopback_bytes: 4 * READ_CHUNK,
            }
        } else {
            Clock {
                budget: Duration::from_millis(40),
                min_blocks: 5,
                loopback_bytes: 64 * 1024 * 1024,
            }
        }
    }

    fn done(&self, blocks: usize, start: Instant) -> bool {
        blocks >= self.min_blocks && start.elapsed() >= self.budget
    }

    /// Median seconds per call of `f`. Fast calls are timed in blocks so
    /// the clock reads stay under a percent of what they bracket.
    fn per_call<T>(&self, mut f: impl FnMut() -> T) -> f64 {
        let t = Instant::now();
        black_box(f());
        let once = t.elapsed().max(Duration::from_nanos(1));
        let reps = (MIN_BLOCK.as_nanos() / once.as_nanos()).clamp(1, 1 << 14) as u32;
        let start = Instant::now();
        let mut blocks = Vec::new();
        while !self.done(blocks.len(), start) {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            blocks.push(t.elapsed().as_secs_f64() / f64::from(reps));
        }
        median(&blocks)
    }
}

/// Inputs captured from one staged round of the workload.
pub struct Captured {
    pub download: ModelDownload,
    pub upload: UpdateUpload,
}

/// Client 0's local data, derived exactly as the federation builder and
/// `FlClient` derive it, so the probes train on what the fleet trains on.
struct ClientZero {
    dataset: Arc<dyn Dataset>,
    shard: Vec<usize>,
    /// Its batches for the captured download's round.
    batches: Vec<Vec<usize>>,
}

impl ClientZero {
    fn of(cfg: &Config, round: u64) -> ClientZero {
        let dataset = cfg.build_dataset();
        let shard = split::shard(dataset.len(), cfg.clients, cfg.plan.seed).swap_remove(0);
        let batches = Batcher::new(
            shard.len(),
            cfg.plan.batch_size,
            cfg.plan.seed ^ round.wrapping_mul(0x9E37),
        )
        .epoch_batches(round, cfg.plan.batches_per_cycle)
        .into_iter()
        .map(|b| b.into_iter().map(|i| shard[i]).collect())
        .collect();
        ClientZero {
            dataset,
            shard,
            batches,
        }
    }
}

/// `tensor.*`: the model's own conv and dense shapes at the plan's batch,
/// through the workload's backend, against a measured FMA ceiling. A
/// model with no convolution probes LeNet-5's first one, so the "should
/// not move" prediction is still checked against a measured number.
fn tensor_probes(cfg: &Config, clock: Clock, out: &mut Values) -> Res<()> {
    let model = cfg.build_model()?;
    let batch = cfg.plan.batch_size;
    let mut conv_geos = Vec::new();
    let mut dense_shapes = Vec::new();
    for layer in model.iter() {
        match layer.kind() {
            LayerKind::Conv2d {
                filters,
                kernel,
                stride,
                pad,
                ..
            } => {
                let in_channels = layer.weights().0.dims()[1] / (kernel * kernel);
                let hw = ((layer.input_elems() / in_channels) as f64).sqrt().round() as usize;
                conv_geos.push(Conv2dGeometry::new(
                    in_channels,
                    hw,
                    hw,
                    filters,
                    kernel,
                    stride,
                    pad,
                )?);
            }
            LayerKind::Dense { inputs, outputs } => dense_shapes.push((inputs, outputs)),
        }
    }
    if conv_geos.is_empty() {
        conv_geos.push(Conv2dGeometry::new(3, 32, 32, 12, 5, 2, 2)?);
    }
    let (mut fwd_s, mut bwd_s, mut mm_s, mut flops) = (0.0, 0.0, 0.0, 0.0);
    for (i, geo) in conv_geos.iter().enumerate() {
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let x = init::uniform(
            &[batch, geo.in_channels, geo.in_h, geo.in_w],
            -1.0,
            1.0,
            i as u64,
        );
        let w = init::uniform(&[geo.out_channels, k2], -0.1, 0.1, 100 + i as u64);
        let b = Tensor::zeros(&[geo.out_channels]);
        let delta = init::uniform(
            &[batch, geo.out_channels, geo.out_h, geo.out_w],
            -1.0,
            1.0,
            200 + i as u64,
        );
        fwd_s += clock.per_call(|| conv2d_forward_with(&x, &w, &b, geo, cfg.backend));
        bwd_s += clock.per_call(|| conv2d_backward_with(&x, &w, &delta, geo, cfg.backend));
        // One multiply-add pair per tap forward; dW and dX each cost the
        // same again backward.
        flops += 3.0 * 2.0 * (batch * geo.out_len() * k2) as f64;
    }
    for (i, &(inputs, outputs)) in dense_shapes.iter().enumerate() {
        let x = init::uniform(&[batch, inputs], -1.0, 1.0, 300 + i as u64);
        let w = init::uniform(&[outputs, inputs], -0.1, 0.1, 400 + i as u64);
        mm_s += clock.per_call(|| matmul_nt_with(&x, &w, cfg.backend));
        flops += 2.0 * (batch * inputs * outputs) as f64;
    }
    let gflops = flops / (fwd_s + bwd_s + mm_s) / 1e9;
    let peak = fma_peak_gflops(clock);
    out.set("tensor.conv_fwd_s", fwd_s);
    out.set("tensor.conv_bwd_s", bwd_s);
    out.set("tensor.matmul_s", mm_s);
    out.set("tensor.gflops", gflops);
    out.set("tensor.fma_peak_gflops", peak);
    out.set("tensor.peak_share", gflops / peak);
    Ok(())
}

/// Independent accumulator chains in the ceiling loop: enough to cover
/// the FMA latency on two issue ports.
const PEAK_CHAINS: usize = 10;
const PEAK_ITERS: usize = 1 << 16;

/// One core's multiply-add ceiling, from a loop whose operands never
/// leave registers: the number `tensor.gflops` is a share of.
fn fma_peak_gflops(clock: Clock) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        let s = clock.per_call(|| {
            // SAFETY: the two features `peak_avx2_fma` is compiled for
            // were detected on this CPU on the line above.
            unsafe { peak_avx2_fma() }
        });
        return (PEAK_ITERS * PEAK_CHAINS * 8 * 2) as f64 / s / 1e9;
    }
    let s = clock.per_call(peak_portable);
    (PEAK_ITERS * PEAK_CHAINS * 8 * 2) as f64 / s / 1e9
}

/// # Safety
///
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn peak_avx2_fma() -> f32 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let a = _mm256_set1_ps(black_box(0.999_999));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc: [__m256; PEAK_CHAINS] = [_mm256_set1_ps(1.0); PEAK_CHAINS];
    for _ in 0..PEAK_ITERS {
        for chain in &mut acc {
            *chain = _mm256_fmadd_ps(*chain, a, b);
        }
    }
    let mut sum = acc[0];
    for chain in &acc[1..] {
        sum = _mm256_add_ps(sum, *chain);
    }
    let mut lanes = [0f32; 8];
    // SAFETY: `lanes` is eight f32 wide, exactly one unaligned 256-bit
    // store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

/// The same loop in plain Rust, for hosts without AVX2+FMA: eight-lane
/// arrays the compiler vectorises with whatever the baseline target has.
fn peak_portable() -> f32 {
    let a = black_box(0.999_999f32);
    let b = black_box(1e-7f32);
    let mut acc = [[1.0f32; 8]; PEAK_CHAINS];
    for _ in 0..PEAK_ITERS {
        for chain in &mut acc {
            for lane in chain.iter_mut() {
                *lane = *lane * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// `nn.*` and `data.batch_s`: one replica, client 0's first batch.
/// Returns the per-batch training time (forward + loss + backward +
/// step), which `fl.client.overhead_s` subtracts.
fn nn_probes(
    cfg: &Config,
    captured: &Captured,
    client: &ClientZero,
    clock: Clock,
    out: &mut Values,
) -> Res<f64> {
    let dataset = &client.dataset;
    let idx = &client.batches[0];
    out.set(
        "data.batch_s",
        clock.per_call(|| batch_of(dataset.as_ref(), idx)),
    );
    let (x, y) = batch_of(dataset.as_ref(), idx);
    let mut model = cfg.build_model()?;
    model.set_weights(&captured.download.weights)?;
    let mut opt = Sgd::new(cfg.plan.learning_rate);
    let (mut fwd, mut loss, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while !clock.done(fwd.len(), start) {
        let t0 = Instant::now();
        let logits = model.forward(&x)?;
        let t1 = Instant::now();
        let (_, delta) = model.loss().evaluate(&logits, &y)?;
        let t2 = Instant::now();
        black_box(model.backward(&delta)?);
        let t3 = Instant::now();
        model.apply_gradients(&mut opt);
        let t4 = Instant::now();
        fwd.push((t1 - t0).as_secs_f64());
        loss.push((t2 - t1).as_secs_f64());
        bwd.push((t3 - t2).as_secs_f64());
        step.push((t4 - t3).as_secs_f64());
        // Keep the probe on the captured weights: a diverging model
        // would change what later iterations compute.
        model.set_weights(&captured.download.weights)?;
    }
    out.set("nn.forward_s", median(&fwd));
    out.set("nn.backward_s", median(&bwd));
    out.set("nn.step_s", median(&step));
    out.set("nn.replicate_s", clock.per_call(|| model.replicate()));
    out.set(
        "nn.weights_copy_s",
        clock.per_call(|| {
            let w = model.weights();
            model.set_weights(&w)
        }),
    );
    out.set("nn.param_bytes", (model.param_count() * 4) as f64);
    Ok(median(&fwd) + median(&loss) + median(&bwd) + median(&step))
}

/// `tee.*` except the crossings count, which the ledger supplies.
fn tee_probes(clock: Clock, out: &mut Values) {
    let key = DeviceProfile::provisioned_key(0);
    let ta = Uuid::from_name("gradsec-ta");
    let measurement = Measurement(sha256(b"gradsec-ta-code-v1"));
    let challenge = Challenge::new([7u8; 16]);
    out.set(
        "tee.sign_quote_s",
        clock.per_call(|| sign_quote(&key, ta, measurement, &challenge)),
    );
    let quote = sign_quote(&key, ta, measurement, &challenge);
    out.set(
        "tee.verify_quote_s",
        clock.per_call(|| verify_quote(&key, &quote, measurement, &challenge)),
    );
    let block = vec![0xA5u8; MIB as usize];
    out.set("tee.sha256_mib_s", 1.0 / clock.per_call(|| sha256(&block)));
}

/// `core.*`: the secure trainer against the plain one on one replica and
/// client 0's cycle, and the cost model's own protected-vs-unprotected
/// estimate.
fn core_probes(
    cfg: &Config,
    captured: &Captured,
    client: &ClientZero,
    clock: Clock,
    out: &mut Values,
) -> Res<()> {
    let (dataset, batches) = (&client.dataset, &client.batches);
    let mut model = cfg.build_model()?;
    let mut cycle = |trainer: &mut dyn LocalTrainer| -> Res<f64> {
        let mut samples = Vec::new();
        let start = Instant::now();
        while !clock.done(samples.len(), start) {
            model.set_weights(&captured.download.weights)?;
            let t = Instant::now();
            trainer.train_cycle(
                &mut model,
                dataset.as_ref(),
                batches,
                cfg.plan.learning_rate,
                &cfg.protected,
            )?;
            samples.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&samples))
    };
    let plain_s = cycle(&mut PlainSgdTrainer)?;
    let secure_s = cycle(&mut SecureTrainer::new())?;
    out.set("core.secure_cycle_s", secure_s);
    out.set("core.plain_cycle_s", plain_s);
    out.set("core.secure_overhead_share", (secure_s - plain_s) / plain_s);
    let cost = CostModel::raspberry_pi3();
    let estimate = |protected: &[usize]| {
        estimate_cycle(
            &model,
            protected,
            cfg.plan.batches_per_cycle,
            cfg.plan.batch_size,
            &cost,
        )
    };
    let (protected, _) = estimate(&cfg.protected)?;
    let (unprotected, _) = estimate(&[])?;
    out.set("core.sim_overhead_pct", protected.overhead_vs(&unprotected));
    Ok(())
}

/// `fl.codec.*`, `fl.message.*` and the reassembler, on the real
/// download and upload under the workload's codec. The upload is coded
/// against the download, as a session's committed base would be.
fn payload_probes(cfg: &Config, captured: &Captured, clock: Clock, out: &mut Values) -> Res<()> {
    let base = &captured.download.weights;
    let trained = &captured.upload.weights;
    let encode_up = || encode_weights(cfg.codec, 1, trained, Some((0, base)));
    let encoded_up = encode_up();
    let encoded_down = encode_weights(cfg.codec, 0, base, None);
    out.set("fl.codec.encode_s", clock.per_call(encode_up));
    out.set(
        "fl.codec.decode_s",
        clock.per_call(|| decode_weights(&encoded_up, Some(base))),
    );
    out.set(
        "fl.codec.ratio",
        dense_wire_bytes(trained) as f64 / encoded_up.wire_bytes() as f64,
    );

    let down_msg = EncodedModelDownload {
        round: captured.download.round,
        weights: encoded_down,
        plan: captured.download.plan,
        protected_layers: captured.download.protected_layers.clone(),
    };
    let up_msg = EncodedUpdateUpload {
        client_id: captured.upload.client_id,
        round: captured.upload.round,
        weights: encoded_up,
        num_samples: captured.upload.num_samples,
        train_loss: captured.upload.train_loss,
        cost: captured.upload.cost,
    };
    let pack_down = || Envelope::pack(MessageKind::EncodedModelDownload, &down_msg);
    let pack_up = || Envelope::pack(MessageKind::EncodedUpdateUpload, &up_msg);
    let (down_env, up_env) = (pack_down(), pack_up());
    out.set(
        "fl.message.pack_s",
        clock.per_call(pack_down) + clock.per_call(pack_up),
    );
    out.set(
        "fl.message.open_s",
        clock.per_call(|| down_env.open::<EncodedModelDownload>(MessageKind::EncodedModelDownload))
            + clock
                .per_call(|| up_env.open::<EncodedUpdateUpload>(MessageKind::EncodedUpdateUpload)),
    );
    out.set(
        "fl.message.frame_bytes",
        (2 * ENVELOPE_HEADER_LEN + down_env.payload.len() + up_env.payload.len()) as f64,
    );

    // A socket's worth of back-to-back upload frames, fed the way an
    // event loop reads them: 64 KiB at a time.
    let frame = encode(&up_env);
    let mut stream = Vec::new();
    while stream.len() < 4 * MIB as usize {
        stream.extend_from_slice(&frame);
    }
    let s = clock.per_call(|| {
        let mut rx = FrameReassembler::new();
        let mut frames = Vec::new();
        for chunk in stream.chunks(READ_CHUNK) {
            rx.feed(chunk, &mut frames).expect("well-formed frames");
            frames.clear();
        }
    });
    out.set(
        "fl.transport.reassemble_mib_s",
        stream.len() as f64 / MIB / s,
    );
    Ok(())
}

/// `fl.transport.loopback_mib_s`: what a raw loopback `TcpStream` copies
/// per second at the same chunk size — the ceiling the envelope path
/// sits under.
fn loopback_probe(clock: Clock, out: &mut Values) -> Res<()> {
    let total = clock.loopback_bytes;
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let seconds = std::thread::scope(|scope| -> Res<f64> {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut stream = TcpStream::connect(addr)?;
            let chunk = vec![0x5Au8; READ_CHUNK];
            for _ in 0..total / READ_CHUNK {
                stream.write_all(&chunk)?;
            }
            Ok(())
        });
        let (mut stream, _) = listener.accept()?;
        let mut buf = vec![0u8; READ_CHUNK];
        let mut received = 0;
        let t = Instant::now();
        while received < total {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                break;
            }
            received += n;
        }
        let seconds = t.elapsed().as_secs_f64();
        writer.join().expect("loopback writer panicked")?;
        if received != total {
            return Err(format!("loopback copy ended at {received} of {total} bytes").into());
        }
        Ok(seconds)
    })?;
    out.set("fl.transport.loopback_mib_s", total as f64 / MIB / seconds);
    Ok(())
}

/// `fl.client.*`: a directly built client 0 running the real download,
/// and what its cycle costs beyond batching and training.
fn client_probes(
    cfg: &Config,
    captured: &Captured,
    zero: ClientZero,
    train_batch_s: f64,
    clock: Clock,
    out: &mut Values,
) -> Res<()> {
    let trainer: Box<dyn LocalTrainer> = if cfg.protected.is_empty() {
        Box::new(PlainSgdTrainer)
    } else {
        Box::new(SecureTrainer::new())
    };
    let mut client = FlClient::new(
        0,
        DeviceProfile::trustzone(0),
        zero.dataset,
        zero.shard,
        cfg.build_model()?,
        trainer,
    );
    let mut samples = Vec::new();
    let start = Instant::now();
    while !clock.done(samples.len(), start) {
        let t = Instant::now();
        black_box(client.run_cycle(&captured.download)?);
        samples.push(t.elapsed().as_secs_f64());
    }
    let cycle_s = median(&samples);
    let batches = cfg.plan.batches_per_cycle as f64;
    let batch_s = out.get("data.batch_s").expect("nn probes ran first");
    out.set("fl.client.cycle_s", cycle_s);
    out.set(
        "fl.client.overhead_s",
        cycle_s - batches * (train_batch_s + batch_s),
    );
    Ok(())
}

/// Runs every probe into `out`.
pub fn run_all(cfg: &Config, captured: &Captured, out: &mut Values) -> Res<()> {
    let clock = Clock::of(cfg);
    let client = ClientZero::of(cfg, captured.download.round);
    tensor_probes(cfg, clock, out)?;
    let train_batch_s = nn_probes(cfg, captured, &client, clock, out)?;
    tee_probes(clock, out);
    core_probes(cfg, captured, &client, clock, out)?;
    payload_probes(cfg, captured, clock, out)?;
    loopback_probe(clock, out)?;
    client_probes(cfg, captured, client, train_batch_s, clock, out)
}
