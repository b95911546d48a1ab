//! Criterion: the hot tensor kernels (the streaming passes MSTopK and the
//! collectives are built from).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cloudtrain::tensor::half::roundtrip_f16;
use cloudtrain::tensor::{init, ops};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_kernels");
    let mut rng = init::rng_from_seed(3);
    for d in [1usize << 16, 1 << 20] {
        let x = init::gradient_like_tensor(d, &mut rng).into_vec();
        let y = init::gradient_like_tensor(d, &mut rng).into_vec();
        group.throughput(Throughput::Elements(d as u64));

        group.bench_with_input(BenchmarkId::new("count_ge", d), &x, |b, x| {
            let thres = ops::mean_abs(x);
            b.iter(|| black_box(ops::count_ge(x, thres)))
        });
        group.bench_with_input(BenchmarkId::new("mean_abs", d), &x, |b, x| {
            b.iter(|| black_box(ops::mean_abs(x)))
        });
        group.bench_with_input(BenchmarkId::new("axpy", d), &x, |b, x| {
            let mut acc = y.clone();
            b.iter(|| {
                ops::axpy(0.5, x, &mut acc);
                black_box(acc[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("l2_norm", d), &x, |b, x| {
            b.iter(|| black_box(ops::l2_norm(x)))
        });
        group.bench_with_input(BenchmarkId::new("f16_roundtrip", d), &x, |b, x| {
            let mut buf = x.clone();
            b.iter(|| {
                buf.copy_from_slice(x);
                roundtrip_f16(&mut buf);
                black_box(buf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("scatter_add_1pct", d), &x, |b, x| {
            let k = d / 100;
            let idx: Vec<u32> = (0..k as u32).map(|i| i * 100).collect();
            let vals: Vec<f32> = x.iter().step_by(100).take(k).copied().collect();
            let mut acc = vec![0.0f32; d];
            b.iter(|| {
                ops::scatter_add(&mut acc, &idx, &vals);
                black_box(acc[0])
            })
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    use cloudtrain::dnn::conv::Conv2d;
    use cloudtrain::dnn::layer::Layer;
    use cloudtrain::tensor::Tensor;
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(20);
    let mut rng = init::rng_from_seed(8);
    let mut x = init::uniform_tensor(4 * 8 * 16 * 16, -1.0, 1.0, &mut rng);
    x.reshape(vec![4, 8, 16, 16]).unwrap();
    group.bench_function("direct_8x16_16x16", |b| {
        let mut conv = Conv2d::new(8, 16, 3, 1, &mut init::rng_from_seed(9));
        b.iter(|| {
            let y: Tensor = conv.forward(x.clone(), true);
            black_box(y.as_slice()[0])
        })
    });
    group.bench_function("im2col_8x16_16x16", |b| {
        let mut conv = Conv2d::new(8, 16, 3, 1, &mut init::rng_from_seed(9)).fast();
        b.iter(|| {
            let y: Tensor = conv.forward(x.clone(), true);
            black_box(y.as_slice()[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_conv);
criterion_main!(benches);
