(* Each workload is built only when asked for: [find] builds one graph,
   [all] every one. *)
let builders =
  [
    ("fig1b", fun () -> Examples.fig1b);
    ("fig7", fun () -> Examples.fig7);
    ("tiny-chain", fun () -> Examples.tiny_chain);
    ("self-loop", fun () -> Examples.self_loop);
    ("two-chains", fun () -> Examples.two_independent_chains);
    ("elliptic", fun () -> Filters.elliptic);
    ("lattice", fun () -> Filters.lattice);
    ("elliptic-slow3", fun () -> Dataflow.Transform.slowdown Filters.elliptic 3);
    ("lattice-slow3", fun () -> Dataflow.Transform.slowdown Filters.lattice 3);
    ("fir8", fun () -> Dsp.fir ~taps:8);
    ("iir-biquad", fun () -> Dsp.iir_biquad);
    ("diffeq", fun () -> Dsp.diffeq);
    ("correlator4", fun () -> Dsp.correlator ~lags:4);
    ("stencil8", fun () -> Kernels.stencil1d ~points:8);
    ("matvec3", fun () -> Kernels.matvec ~size:3);
    ("lms4", fun () -> Kernels.lms ~taps:4);
    ("volterra", fun () -> Kernels.volterra);
    ("fft8", fun () -> Kernels.fft_stage ~points:8);
    ("biquad-cascade3", fun () -> Kernels.biquad_cascade ~sections:3);
    ("wavefront4", fun () -> Kernels.wavefront ~size:4);
  ]

let all () = List.map (fun (name, build) -> (name, build ())) builders
let find name =
  Option.map (fun build -> build ()) (List.assoc_opt name builders)
let names () = List.map fst builders
