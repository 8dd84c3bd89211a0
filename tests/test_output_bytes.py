"""Output bytes of every command that prints a metric result.

Each command runs on a tiny log and its whole stdout is compared with
literal text, so a renamed key, a moved field, a changed rounding or a
different CSV quoting fails here. The log has a category with six periods
and task outcomes, and one with two periods, no outcomes and a name that
CSV must quote. `simulate` is pinned where no draw depends on the random
stream, for a category CSV must quote and one holding a carriage return,
and for one small seeded stream, which must give the same bytes on every
supported Python.
"""

from __future__ import annotations

import pytest

from adux.cli import main

LOG = '''session_id,category,period,rating,task_completed
s1,chat,0,4,true
s1,chat,0,5,true
s2,chat,0,2,false
s3,chat,1,3,true
s4,chat,1,4,false
s5,chat,2,4,true
s5,chat,2,3,true
s6,chat,3,5,true
s7,chat,3,2,false
s8,chat,4,4,true
s9,chat,5,5,true
s9,chat,5,1,
t1,"search, ""beta""",0,3,
t2,"search, ""beta""",0,5,
t2,"search, ""beta""",1,3,
'''

# `tdc` exits 2 on a category with fewer than five periods.
CHAT_ONLY = "".join(line for line in LOG.splitlines(True) if "search" not in line)

DIGEST = {
    "pooled": "adux: config digest 54fa2b16c8d2\n",
    "mean-of-sessions": "adux: config digest c7bb5e490563\n",
}

SIMULATE_FIXED = ["--probs", "0,0,1,0,0", "--completion-p", "1", "--periods", "2",
                  "--sessions-per-period", "2", "--seed", "42"]

# name: (arguments, stdout); "LOG" and "CHAT" stand for the two log files.
CASES = {
    "report-json-pooled": (
        ["report", "--no-meta", "--input", "LOG"],
        r'''{
  "scale": {
    "levels": [
      {
        "code": 1,
        "label": "1"
      },
      {
        "code": 2,
        "label": "2"
      },
      {
        "code": 3,
        "label": "3"
      },
      {
        "code": 4,
        "label": "4"
      },
      {
        "code": 5,
        "label": "5"
      }
    ]
  },
  "categories": [
    {
      "name": "chat",
      "iei": {
        "bits": 2.18872188,
        "normalized": 0.942631204,
        "n": 12
      },
      "tdc": {
        "beta0": 3.65873016,
        "beta1": -0.0523809524,
        "stderr": 0.082386916,
        "ci95": [
          -0.281123702,
          0.176361797
        ],
        "r2": 0.0917825537,
        "n_points": 6
      },
      "bucs": {
        "posterior": {
          "alpha": 9.0,
          "beta": 4.0
        },
        "interval": {
          "lower": 0.451514561,
          "upper": 0.917110709,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.692307692
      }
    },
    {
      "name": "search, \"beta\"",
      "iei": {
        "bits": 0.918295834,
        "normalized": 0.395488489,
        "n": 3
      },
      "tdc": {
        "unavailable": "insufficient-periods"
      },
      "bucs": {
        "unavailable": "no-task-outcomes"
      }
    }
  ]
}
''',
    ),
    "report-json-mean": (
        ["report", "--no-meta", "--aggregation", "mean-of-sessions",
         "--input", "LOG"],
        r'''{
  "scale": {
    "levels": [
      {
        "code": 1,
        "label": "1"
      },
      {
        "code": 2,
        "label": "2"
      },
      {
        "code": 3,
        "label": "3"
      },
      {
        "code": 4,
        "label": "4"
      },
      {
        "code": 5,
        "label": "5"
      }
    ]
  },
  "categories": [
    {
      "name": "chat",
      "iei": {
        "bits": 0.333333333,
        "normalized": 0.143558853,
        "n": 12
      },
      "tdc": {
        "beta0": 3.65873016,
        "beta1": -0.0523809524,
        "stderr": 0.082386916,
        "ci95": [
          -0.281123702,
          0.176361797
        ],
        "r2": 0.0917825537,
        "n_points": 6
      },
      "bucs": {
        "posterior": {
          "alpha": 9.0,
          "beta": 4.0
        },
        "interval": {
          "lower": 0.451514561,
          "upper": 0.917110709,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.692307692
      }
    },
    {
      "name": "search, \"beta\"",
      "iei": {
        "bits": 0.5,
        "normalized": 0.215338279,
        "n": 3
      },
      "tdc": {
        "unavailable": "insufficient-periods"
      },
      "bucs": {
        "unavailable": "no-task-outcomes"
      }
    }
  ]
}
''',
    ),
    "report-csv-pooled": (
        ["report", "--no-meta", "--report-format", "csv", "--input", "LOG"],
        r'''category,metric,available,reason,bits,normalized,n,beta0,beta1,stderr,ci95_lower,ci95_upper,r2,n_points,alpha,beta,interval_lower,interval_upper,interval_mass,interval_kind,interval_unique,mean
chat,iei,true,,2.18872188,0.942631204,12,,,,,,,,,,,,,,,
chat,tdc,true,,,,,3.65873016,-0.0523809524,0.082386916,-0.281123702,0.176361797,0.0917825537,6,,,,,,,,
chat,bucs,true,,,,,,,,,,,,9.0,4.0,0.451514561,0.917110709,0.95,hdi,true,0.692307692
"search, ""beta""",iei,true,,0.918295834,0.395488489,3,,,,,,,,,,,,,,,
"search, ""beta""",tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
"search, ""beta""",bucs,false,no-task-outcomes,,,,,,,,,,,,,,,,,,
''',
    ),
    "report-csv-mean": (
        ["report", "--no-meta", "--report-format", "csv",
         "--aggregation", "mean-of-sessions", "--input", "LOG"],
        r'''category,metric,available,reason,bits,normalized,n,beta0,beta1,stderr,ci95_lower,ci95_upper,r2,n_points,alpha,beta,interval_lower,interval_upper,interval_mass,interval_kind,interval_unique,mean
chat,iei,true,,0.333333333,0.143558853,12,,,,,,,,,,,,,,,
chat,tdc,true,,,,,3.65873016,-0.0523809524,0.082386916,-0.281123702,0.176361797,0.0917825537,6,,,,,,,,
chat,bucs,true,,,,,,,,,,,,9.0,4.0,0.451514561,0.917110709,0.95,hdi,true,0.692307692
"search, ""beta""",iei,true,,0.5,0.215338279,3,,,,,,,,,,,,,,,
"search, ""beta""",tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
"search, ""beta""",bucs,false,no-task-outcomes,,,,,,,,,,,,,,,,,,
''',
    ),
    "iei-category": (
        ["iei", "--group-by", "category", "--input", "LOG"],
        r'''{
  "groups": [
    {
      "category": "chat",
      "bits": 2.18872188,
      "normalized": 0.942631204,
      "n": 12
    },
    {
      "category": "search, \"beta\"",
      "bits": 0.918295834,
      "normalized": 0.395488489,
      "n": 3
    }
  ],
  "rejected": 0
}
''',
    ),
    "iei-category-period": (
        ["iei", "--group-by", "category-period", "--input", "LOG"],
        r'''{
  "groups": [
    {
      "category": "chat",
      "period": 0,
      "bits": 1.5849625,
      "normalized": 0.682606194,
      "n": 3
    },
    {
      "category": "chat",
      "period": 1,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "chat",
      "period": 2,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "chat",
      "period": 3,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "chat",
      "period": 4,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    },
    {
      "category": "chat",
      "period": 5,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "search, \"beta\"",
      "period": 0,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "search, \"beta\"",
      "period": 1,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    }
  ],
  "rejected": 0
}
''',
    ),
    "tdc-chat": (
        ["tdc", "--input", "CHAT"],
        r'''{
  "categories": [
    {
      "category": "chat",
      "beta0": 3.65873016,
      "beta1": -0.0523809524,
      "stderr": 0.082386916,
      "ci95": [
        -0.281123702,
        0.176361797
      ],
      "residual_sd": 0.344649197,
      "r2": 0.0917825537,
      "n_points": 6,
      "drift": "indeterminate"
    }
  ],
  "rejected": 0
}
''',
    ),
    "bucs-interior": (
        ["bucs", "--n", "7", "--N", "10"],
        r'''{
  "posterior": {
    "alpha": 8.0,
    "beta": 4.0
  },
  "interval": {
    "lower": 0.412047441,
    "upper": 0.906627667,
    "mass": 0.95,
    "kind": "hdi",
    "unique": true
  },
  "mean": 0.666666667,
  "mode": 0.7,
  "wald": {
    "lower": 0.415974233,
    "upper": 0.984025767
  }
}
''',
    ),
    "bucs-one-sided": (
        ["bucs", "--n", "0", "--N", "10"],
        r'''{
  "posterior": {
    "alpha": 1.0,
    "beta": 11.0
  },
  "interval": {
    "lower": 0.0,
    "upper": 0.23840419,
    "mass": 0.95,
    "kind": "one-sided-lower",
    "unique": true
  },
  "mean": 0.0833333333,
  "mode": null,
  "wald": {
    "lower": 0.0,
    "upper": 0.0
  }
}
''',
    ),
    "bucs-no-trials": (
        ["bucs", "--n", "0", "--N", "0"],
        r'''{
  "posterior": {
    "alpha": 1.0,
    "beta": 1.0
  },
  "interval": {
    "lower": 0.025,
    "upper": 0.975,
    "mass": 0.95,
    "kind": "equal-tailed",
    "unique": false
  },
  "mean": 0.5,
  "mode": null
}
''',
    ),
    "bucs-jeffreys": (
        ["bucs", "--n", "3", "--N", "8", "--prior", "0.5,0.5"],
        r'''{
  "posterior": {
    "alpha": 3.5,
    "beta": 5.5
  },
  "interval": {
    "lower": 0.103927289,
    "upper": 0.685919203,
    "mass": 0.95,
    "kind": "hdi",
    "unique": true
  },
  "mean": 0.388888889,
  "mode": 0.357142857,
  "wald": {
    "lower": 0.0395260954,
    "upper": 0.710473905
  }
}
''',
    ),
    "plotdata-fig1": (
        ["plotdata", "--figure", "fig1", "--input", "LOG"],
        r'''category,iei_bits,iei_normalized
chat,2.18872188,0.942631204
"search, ""beta""",0.918295834,0.395488489
''',
    ),
    "plotdata-fig2": (
        ["plotdata", "--figure", "fig2", "--input", "LOG"],
        r'''category,t,u,fitted_u
chat,0,3.66666667,3.65873016
chat,1,3.5,3.60634921
chat,2,3.5,3.55396825
chat,3,3.5,3.5015873
chat,4,4.0,3.44920635
chat,5,3.0,3.3968254
"search, ""beta""",0,4.0,
"search, ""beta""",1,3.0,
''',
    ),
    "plotdata-fig3": (
        ["plotdata", "--figure", "fig3", "--p-hat", "0.7"],
        r'''N,bucs_hdi_width,wald_width
10,0.494580226,0.568051535
50,0.246408267,0.254040369
200,0.126036277,0.127020185
1000,0.0567164079,0.0568051535
''',
    ),
    # Every rating is 3 and every task is completed, so these bytes do not
    # depend on the random stream.
    "simulate-quoted": (
        ["simulate", *SIMULATE_FIXED, "--category", 'search, "beta"'],
        r'''session_id,category,period,rating,task_completed
"search, ""beta""-p0-s0","search, ""beta""",0,3,true
"search, ""beta""-p0-s1","search, ""beta""",0,3,true
"search, ""beta""-p1-s0","search, ""beta""",1,3,true
"search, ""beta""-p1-s1","search, ""beta""",1,3,true
''',
    ),
    "simulate-carriage-return": (
        ["simulate", *SIMULATE_FIXED, "--category", "car\rriage"],
        '''session_id,category,period,rating,task_completed
"car\rriage-p0-s0","car\rriage",0,3,true
"car\rriage-p0-s1","car\rriage",0,3,true
"car\rriage-p1-s0","car\rriage",1,3,true
"car\rriage-p1-s1","car\rriage",1,3,true
''',
    ),
    # Drawn through random.Random(42).random(), whose sequence Python keeps
    # the same across versions.
    "simulate-seeded": (
        ["simulate", "--category", "chat", "--probs", "0.1,0.2,0.3,0.2,0.2",
         "--completion-p", "0.5", "--periods", "2", "--sessions-per-period", "3",
         "--seed", "42"],
        '''session_id,category,period,rating,task_completed
chat-p0-s0,chat,0,4,true
chat-p0-s1,chat,0,1,false
chat-p0-s2,chat,0,2,false
chat-p1-s0,chat,1,5,true
chat-p1-s1,chat,1,1,true
chat-p1-s2,chat,1,3,false
''',
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_bytes(name, tmp_path, capsys):
    argv, expected = CASES[name]
    log = tmp_path / "log.csv"
    log.write_text(LOG, encoding="utf-8")
    chat = tmp_path / "chat.csv"
    chat.write_text(CHAT_ONLY, encoding="utf-8")
    paths = {"LOG": str(log), "CHAT": str(chat)}
    assert main([paths.get(arg, arg) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    if argv[0] == "report":
        aggregation = "mean-of-sessions" if "mean-of-sessions" in argv else "pooled"
        assert captured.err == DIGEST[aggregation]
    elif argv[0] == "simulate":
        sessions = expected.count("\n") - 1  # one line per session, after the header
        assert captured.err == f"adux: simulated {sessions} sessions (seed 42)\n"
    else:
        assert captured.err == ""
